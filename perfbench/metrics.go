package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions (TestCatalogMatchesBenchmarkJSON).
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the system sees, measured with
// the benchmark's spans, CollectStats and Trace all off.
var endToEnd = []metricDef{
	{"rows_per_s", "rows/s", "higher"},
	{"cpu_ns_per_row", "ns/row", "lower"},
	{"setup_s", "s", "lower"},
	{"cold_run_s", "s", "lower"},
	{"alloc_bytes_per_row", "B/row", "lower"},
	{"peak_rss_bytes", "B", "lower"},
	{"aggregator_cpu_units", "units", "lower"},
}

// opKinds are the physical operator kinds the workloads instantiate,
// as obs.NodeReport names them.
var opKinds = []string{"scan", "union", "select/project", "aggregate",
	"sub-aggregate", "super-aggregate", "join", "output"}

func opMetric(kind, dir string) string {
	return "exec.op." + strings.ReplaceAll(kind, "/", "_") + "." + dir
}

// layers are the layers whose self time the traced run reports.
var layers = []string{"netgen", "plan", "core", "optimizer", "cluster", "live",
	"exec.agg", "exec.join", "exec.pivot", "exec.wire", "check"}

// perLayer are the metrics of the traced run.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"plan.load_s", "s", "lower"},
		{"core.analyze_s", "s", "lower"},
		{"core.enumerated", "count", "lower"},
		{"core.unique_sets", "count", "lower"},
		{"core.pruned", "count", "higher"},
		{"optimizer.deploy_s", "s", "lower"},
		{"optimizer.plan_ops", "count", "lower"},
		{"cluster.rounds", "count", "lower"},
		{"cluster.feed_batches", "count", "lower"},
		{"cluster.link_items", "count", "lower"},
		{"cluster.host_skew", "ratio", "lower"},
		{"cluster.net_bytes", "B", "lower"},
		{"cluster.ipc_tuples", "count", "lower"},
		{"cluster.seq_run_s", "s", "lower"},
		{"cluster.parallel_speedup", "x", "higher"},
		{"aggregator_net_bytes", "B", "lower"},
		{"failed_frac", "fraction", "lower"},
		{"exec.agg.push_ns_per_row", "ns/row", "lower"},
		{"exec.agg.advance_ns_per_call", "ns/call", "lower"},
		{"exec.agg.flush_s", "s", "lower"},
		{"exec.agg.allocs_per_row", "allocs/row", "lower"},
		{"exec.agg.group_high_water", "count", "lower"},
		{"exec.join.push_ns_per_row", "ns/row", "lower"},
		{"exec.join.advance_ns_per_call", "ns/call", "lower"},
		{"exec.join.stored_peak", "count", "lower"},
		{"exec.join.out_per_in", "ratio", "higher"},
		{"exec.pivot.to_cols_ns_per_row", "ns/row", "lower"},
		{"exec.pivot.to_rows_ns_per_row", "ns/row", "lower"},
		{"exec.wire.encode_ns_per_row", "ns/row", "lower"},
		{"exec.wire.decode_ns_per_row", "ns/row", "lower"},
		{"exec.wire.bytes_per_row", "B/row", "lower"},
		{"exec.wire.decode_allocs_per_row", "allocs/row", "lower"},
	}
	for _, k := range opKinds {
		defs = append(defs,
			metricDef{opMetric(k, "rows_in"), "rows", "lower"},
			metricDef{opMetric(k, "rows_out"), "rows", "lower"})
	}
	defs = append(defs,
		metricDef{"live.transport_s", "s", "lower"},
		metricDef{"live.transport_cpu_ns_per_row", "ns/row", "lower"},
		metricDef{"obs.trace_overhead", "ratio", "lower"},
		metricDef{"obs.trace_events", "count", "lower"},
		metricDef{"runtime.gc_cpu_frac", "fraction", "lower"},
		metricDef{"runtime.gc_cycles_per_run", "count", "lower"},
		metricDef{"netgen.gen_s", "s", "lower"},
	)
	for _, l := range layers {
		defs = append(defs, metricDef{l + ".self_s", "s", "lower"})
	}
	return defs
}()

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report fills a result from measured values, which must cover every
// metric of defs and nothing else.
func report(defs []metricDef, values map[string]float64, attempted, failed int) (*result, error) {
	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed,
		Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(values) != len(defs) {
		var extra []string
		for name := range values { //qap:allow maprange -- names collected then sorted below
			if _, ok := res.Metrics[name]; !ok {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return nil, fmt.Errorf("unlisted metrics measured: %s", strings.Join(extra, ", "))
	}
	return res, nil
}

// printTable writes the metrics in catalog order, one per line.
func printTable(w io.Writer, defs []metricDef, res *result) {
	for _, d := range defs {
		fmt.Fprintf(w, "%-34s %18.6g %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
}

func printJSONLine(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}
