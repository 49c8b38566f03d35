package main

import (
	"fmt"
	"strings"
	"time"

	"qap"
	"qap/internal/netgen"
)

// workload is one named benchmark input: a query set, the trace it
// replays, and the deployment it runs on. Every workload is generated
// from the run's seed; nothing else about the inputs varies.
type workload struct {
	name    string
	queries string
	// trace is the netgen shape at full scale; Seed is set per run.
	trace netgen.Config
	// deploy is the timed deployment. Partitioning is filled from the
	// analysis when recommended is set.
	deploy      qap.DeployConfig
	recommended bool
}

// driveTimeout turns a wedged engine into a failed replay instead of a
// hung benchmark.
const driveTimeout = 60 * time.Second

var pattern = map[string]qap.Value{"PATTERN": qap.Uint(qap.AttackPattern)}

// wideMix is the address mix of the paper-figure experiments
// (qap.DefaultExperimentConfig): per-epoch group counts stay a large
// fraction of the packet rate.
func wideMix(durationSec, rate int) netgen.Config {
	c := netgen.DefaultConfig()
	c.DurationSec, c.PacketsPerSec = durationSec, rate
	c.SrcHosts, c.DstHosts, c.ZipfS = 6000, 4000, 1.1
	return c
}

func defaultMix(durationSec, rate int) netgen.Config {
	c := netgen.DefaultConfig()
	c.DurationSec, c.PacketsPerSec = durationSec, rate
	return c
}

// workloads lists the benchmark's workloads. The comment on each says
// why it is here: which layers it stresses and which it leaves idle.
func workloads() []workload {
	return []workload{
		// Single-threaded baseline: exec's compiled column kernels and
		// dense aggregate store do nearly all the work; routing, replay,
		// transport and search do almost none. The control that must
		// stay flat under transport, engine, join or search changes.
		{
			name:    "fig8-local",
			queries: qap.SuspiciousFlowsQuery,
			trace:   defaultMix(200, 2000),
			deploy: qap.DeployConfig{Hosts: 1, PartitionsPerHost: 1, Workers: 1,
				Columnar: true, Params: pattern, DriveTimeout: driveTimeout},
		},
		// The same query and trace over the live TCP backend with two
		// in-process nodes on loopback: the splitter's column-to-row
		// pivot, the row-wise wire codec, sockets and credit windows.
		{
			name:    "fig8-live",
			queries: qap.SuspiciousFlowsQuery,
			trace:   defaultMix(200, 2000),
			deploy: qap.DeployConfig{Hosts: 2, PartitionsPerHost: 1, Workers: 2,
				Columnar: true, Engine: qap.EngineLive, Params: pattern,
				DriveTimeout: driveTimeout},
			recommended: true,
		},
		// Section 6.2's set: subnet aggregation, the jitter self-join and
		// its per-flow aggregate, on the row-batched path. Join state is
		// written on every tuple, probed, and evicted at every watermark.
		{
			name:    "jitter-4host",
			queries: qap.QuerySetSection62,
			trace:   wideMix(60, 1000),
			deploy: qap.DeployConfig{Hosts: 4, PartitionsPerHost: 2, Workers: 2,
				Params: pattern, DriveTimeout: driveTimeout},
			recommended: true,
		},
		// The paper's "50 simultaneous queries" application: the search
		// dominates set-up, and one scan fans out to ~45 operators, so
		// per-operator and per-batch overhead shows here.
		{
			name:    "monitor50",
			queries: fiftyQueryWorkload(),
			trace:   defaultMix(120, 400),
			deploy: qap.DeployConfig{Hosts: 4, PartitionsPerHost: 2, Workers: 2,
				Columnar: true, Params: pattern, DriveTimeout: driveTimeout},
			recommended: true,
		},
	}
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// fiftyQueryWorkload is the 50-query monitoring application the
// repository's TestFiftyQueryWorkload builds, copied here because test
// code cannot be imported: flow aggregations at three epochs and ten
// groupings, filtered variants, HAVING detectors, rollups over the
// aggregations, and self-joins correlating consecutive epochs.
func fiftyQueryWorkload() string {
	var b strings.Builder
	groupings := []struct{ sel, gb string }{
		{"srcIP", "srcIP"},
		{"destIP", "destIP"},
		{"srcIP, destIP", "srcIP, destIP"},
		{"subnet, destIP", "srcIP & 0xFFF0 AS subnet, destIP"},
		{"srcIP, destIP, srcPort, destPort", "srcIP, destIP, srcPort, destPort"},
		{"destIP, destPort", "destIP, destPort"},
		{"srcIP, srcPort", "srcIP, srcPort"},
		{"destPort", "destPort"},
		{"srcnet", "srcIP & 0xFF00 AS srcnet"},
		{"dstnet, destPort", "destIP & 0xFFF0 AS dstnet, destPort"},
	}
	n := 0
	for _, epoch := range []int{30, 60, 120} {
		for _, grouping := range groupings {
			n++
			fmt.Fprintf(&b, `
query agg%d:
SELECT tb, %s, COUNT(*) AS cnt, SUM(len) AS bytes
FROM TCP GROUP BY time/%d AS tb, %s
`, n, grouping.sel, epoch, grouping.gb)
		}
	}
	for i, port := range []int{80, 443, 53, 22, 25} {
		n++
		fmt.Fprintf(&b, `
query svc%d:
SELECT tb, srcIP, COUNT(*) AS cnt
FROM TCP WHERE destPort = %d GROUP BY time/60 AS tb, srcIP
`, i, port)
	}
	for i, threshold := range []int{50, 200, 1000} {
		n++
		fmt.Fprintf(&b, `
query hot%d:
SELECT tb, srcIP, destIP, COUNT(*) AS cnt
FROM TCP GROUP BY time/60 AS tb, srcIP, destIP
HAVING COUNT(*) > %d
`, i, threshold)
	}
	for i, src := range []int{1, 3, 5, 7, 11, 13, 15, 17, 21, 23} {
		fmt.Fprintf(&b, `
query roll%d:
SELECT tb, srcIP, MAX(cnt) AS max_cnt
FROM agg%d GROUP BY tb, srcIP
`, i+1, src)
	}
	for i := 1; i <= 2; i++ {
		fmt.Fprintf(&b, `
query corr%d:
SELECT A.tb, A.srcIP, A.max_cnt, B.max_cnt
FROM roll%d A, roll%d B
WHERE A.srcIP = B.srcIP AND A.tb = B.tb + 1
`, i, i, i)
	}
	return b.String()
}
