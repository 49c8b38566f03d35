// Command perfbench is the repository's benchmark. It replays a seeded
// netgen trace through the public qap API (Load, Analyze, Deploy,
// Deployment.Run) for one named workload, checks every replay against
// the centralized sequential scalar reference, and prints its metrics.
//
//	perfbench --workload fig8-local --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics, measured with the
// benchmark's spans and the program's CollectStats and Trace off. With
// --trace 1 it prints the per-layer metrics of a separate traced run
// and writes its spans as JSON lines. The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// The exit code is 0 only when every replay matched the reference.
// See README.md for the metrics and workloads.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "fig8-local", "workload name")
	fs.Int64Var(&o.seed, "seed", 1, "trace generator seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "how long the steady-state replays are measured")
	fs.IntVar(&traceFlag, "trace", 0, "1 runs the traced run and prints the per-layer metrics")
	fs.Float64Var(&o.scale, "scale", 1, "multiplier on the workload's trace duration")
	fs.IntVar(&o.corruptReplay, "corrupt-replay", 0, "fault injection for the self-test: corrupt this replay's output (1-based)")
	fs.StringVar(&o.spansOut, "spans-out", "", "where the traced run writes its spans (default .bench_build/spans/<workload>-seed<seed>.jsonl)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1\n")
		return 2
	}
	o.trace = traceFlag == 1
	if o.seconds <= 0 || o.scale <= 0 {
		fmt.Fprintf(stderr, "perfbench: --seconds and --scale must be positive\n")
		return 2
	}
	if o.spansOut == "" {
		o.spansOut = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	}
	o.log = stderr

	b, err := newBench(o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	defs := endToEnd
	var values map[string]float64
	if o.trace {
		defs = perLayer
		values, err = b.runTraced()
	} else {
		values, err = b.runUntraced()
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	st := newStamp(o, len(b.packets))
	res, err := report(defs, values, b.attempted, b.failed)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if o.trace {
		if err := b.tr.write(o.spansOut, st); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		fmt.Fprint(stdout, layerTable(b.tr.selfTimes()))
		for _, s := range b.sanity(values) {
			fmt.Fprintf(stdout, "profile note: %s\n", s)
		}
	}
	printTable(stdout, defs, res)
	if err := printJSONLine(stdout, map[string]any{"stamp": st}); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := printJSONLine(stdout, res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %d of %d replays failed (failed_frac %.4g)\n",
			res.Failed, res.Attempted, float64(res.Failed)/float64(res.Attempted))
		return 1
	}
	return 0
}
