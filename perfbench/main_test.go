package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runTiny runs the command on a tiny trace and returns its exit code
// and its parsed last output line.
func runTiny(t *testing.T, args ...string) (int, *result, string) {
	t.Helper()
	args = append([]string{"--scale", "0.05", "--seconds", "0.05",
		"--spans-out", filepath.Join(t.TempDir(), "spans.jsonl")}, args...)
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%v: last line is not a result (%v)\nstdout:\n%s\nstderr:\n%s", args, err, stdout.String(), stderr.String())
	}
	return code, &res, stderr.String()
}

// TestSmokeEveryMetric runs each workload at tiny scale, untraced and
// traced, and checks that every catalogued metric is printed with its
// unit and that every replay matched the reference.
func TestSmokeEveryMetric(t *testing.T) {
	for _, w := range workloads() {
		for _, tr := range []string{"0", "1"} {
			code, res, stderr := runTiny(t, "--workload", w.name, "--trace", tr)
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%s: exit %d, result %+v\n%s", w.name, tr, code, res, stderr)
			}
			defs := endToEnd
			if tr == "1" {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%s: %d metrics, want %d", w.name, tr, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.name]
				if !ok || v.Unit != d.unit {
					t.Errorf("%s trace=%s: metric %s = %+v, want unit %s", w.name, tr, d.name, v, d.unit)
				}
			}
		}
	}
}

// TestCorruptedOutputFails feeds one replay a corrupted output: the run
// must count it as failed, report failed_frac > 0, and exit nonzero.
func TestCorruptedOutputFails(t *testing.T) {
	code, res, _ := runTiny(t, "--workload", "fig8-local", "--trace", "0", "--corrupt-replay", "2")
	if code == 0 || res.Correct || res.Failed != 1 {
		t.Errorf("untraced: exit %d, correct %v, failed %d of %d; want nonzero exit and one failure",
			code, res.Correct, res.Failed, res.Attempted)
	}
	code, res, _ = runTiny(t, "--workload", "fig8-local", "--trace", "1", "--corrupt-replay", "2")
	if code == 0 || res.Correct || res.Metrics["failed_frac"].Value <= 0 {
		t.Errorf("traced: exit %d, correct %v, failed_frac %v; want nonzero exit and failed_frac > 0",
			code, res.Correct, res.Metrics["failed_frac"].Value)
	}
}

// TestCatalogMatchesBenchmarkJSON keeps BENCHMARK.json and the metrics
// the command prints in step.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads() {
		want = append(want, w.name)
	}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("BENCHMARK.json workloads %v, command has %v", names, want)
	}
	same := func(kind string, got []metric, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, command prints %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, command %+v", kind, i, g, d)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
