package main

import (
	"fmt"
	"strings"
	"time"

	"qap"
	"qap/internal/exec"
)

// twinReplays warms dep up and returns the checked replays of n more.
func (b *bench) twinReplays(dep *qap.Deployment, layer string, n int) []replayStats {
	b.replay(dep, layer)
	var out []replayStats
	for i := 0; i < n; i++ {
		if st, ok := b.replay(dep, layer); ok {
			out = keep(out, st)
		}
	}
	return out
}

// runTraced measures the per-layer metrics: the benchmark's spans are
// on, and the traced twin of the deployment also has the program's
// CollectStats and causal Trace on. The untraced replays here are the
// base for obs.trace_overhead, cluster.parallel_speedup and the live
// engine twin.
func (b *bench) runTraced() (map[string]float64, error) {
	sys, an, cfg, first, err := b.start()
	if err != nil {
		return nil, err
	}
	layer := engineLayer(cfg)
	m := make(map[string]float64)

	// The traced twin has the program's stats and causal trace on. Its
	// replays alternate with untraced ones, so drift on a shared machine
	// hits both sides of obs.trace_overhead alike.
	tcfg := cfg
	tcfg.CollectStats, tcfg.Trace = true, &qap.RunTraceConfig{}
	tdep, err := b.deploy(sys, tcfg)
	if err != nil {
		return nil, err
	}
	s, err := b.measure(sys, cfg, first, b.o.seconds/3, tdep)
	if err != nil {
		return nil, err
	}
	plain, traced := s.warm, s.twin

	var loads, analyzes, deploys []time.Duration
	for _, t := range s.setups {
		loads, analyzes, deploys = append(loads, t.load), append(analyzes, t.analyze), append(deploys, t.deploy)
	}
	m["netgen.gen_s"] = b.genTime.Seconds()
	m["plan.load_s"] = median(loads).Seconds()
	m["core.analyze_s"] = median(analyzes).Seconds()
	m["optimizer.deploy_s"] = median(deploys).Seconds()
	m["core.enumerated"] = float64(an.Search.Enumerated)
	m["core.unique_sets"] = float64(an.Search.UniqueSets)
	m["core.pruned"] = float64(an.Search.Pruned)

	base := median(walls(plain))
	m["obs.trace_overhead"] = median(walls(traced)).Seconds()/base.Seconds() - 1
	tres := traced[0].res
	m["obs.trace_events"] = float64(len(tres.Trace.Records))
	rep := tres.Report()
	m["optimizer.plan_ops"] = float64(rep.Plan.Operators)
	m["cluster.rounds"] = float64(rep.Timing.Rounds)
	m["cluster.feed_batches"] = float64(rep.Timing.Batches)
	m["cluster.link_items"] = float64(rep.Timing.LinkItems)
	for _, k := range opKinds {
		m[opMetric(k, "rows_in")], m[opMetric(k, "rows_out")] = 0, 0
	}
	for _, n := range rep.Nodes {
		in, out := opMetric(n.Kind, "rows_in"), opMetric(n.Kind, "rows_out")
		if _, ok := m[in]; !ok {
			return nil, fmt.Errorf("operator kind %q is not in the metric catalog", n.Kind)
		}
		m[in] += float64(n.RowsIn)
		m[out] += float64(n.RowsOut)
	}

	hosts := plain[0].res.Metrics.Hosts
	var net, ipc float64
	for _, h := range hosts {
		net += float64(h.NetBytesIn)
		ipc += float64(h.IPCTuplesIn)
	}
	m["cluster.net_bytes"], m["cluster.ipc_tuples"] = net, ipc
	m["aggregator_net_bytes"] = float64(hosts[0].NetBytesIn)
	// Skew is over the leaf hosts (all but the aggregator, host 0); a
	// cluster with one leaf or none has none.
	m["cluster.host_skew"] = 1
	if len(hosts) > 2 {
		var max, total float64
		for _, h := range hosts[1:] {
			t := float64(h.Tuples)
			total += t
			if t > max {
				max = t
			}
		}
		m["cluster.host_skew"] = max / (total / float64(len(hosts)-1))
	}

	var cpu time.Duration
	var gcCPU float64
	var cycles uint64
	for _, r := range plain {
		cpu += r.cpu
		gcCPU += r.gcCPU
		cycles += r.gcCycles
	}
	m["runtime.gc_cpu_frac"] = gcCPU / cpu.Seconds()
	m["runtime.gc_cycles_per_run"] = float64(cycles) / float64(len(plain))

	// Sequential twin: the same deployment on one worker.
	m["cluster.seq_run_s"], m["cluster.parallel_speedup"] = base.Seconds(), 1
	if cfg.Workers > 1 {
		scfg := cfg
		scfg.Workers = 1
		sdep, err := b.deploy(sys, scfg)
		if err != nil {
			return nil, err
		}
		seq := median(walls(b.twinReplays(sdep, layer, 3)))
		m["cluster.seq_run_s"] = seq.Seconds()
		m["cluster.parallel_speedup"] = seq.Seconds() / base.Seconds()
	}

	// Engine twin: the live deployment's work on the simulator; the
	// difference is what the transport costs.
	m["live.transport_s"], m["live.transport_cpu_ns_per_row"] = 0, 0
	if cfg.Engine == qap.EngineLive {
		ecfg := cfg
		ecfg.Engine = qap.EngineSim
		edep, err := b.deploy(sys, ecfg)
		if err != nil {
			return nil, err
		}
		sim := b.twinReplays(edep, "cluster", 3)
		if len(sim) == 0 {
			return nil, fmt.Errorf("simulator twin produced no correct replay")
		}
		m["live.transport_s"] = (base - median(walls(sim))).Seconds()
		m["live.transport_cpu_ns_per_row"] = float64((median(cpus(plain)) - median(cpus(sim))).Nanoseconds()) /
			float64(len(b.packets))
	}

	if err := b.execDrives(sys, cfg, m); err != nil {
		return nil, err
	}
	self := b.tr.selfTimes()
	for _, l := range layers {
		m[l+".self_s"] = self[l].Seconds()
	}
	m["failed_frac"] = float64(b.failed) / float64(b.attempted)
	return m, nil
}

// execDrives runs the exec drives that match what the deployment
// exercises: aggregation always; the join where a join reads the base
// stream; the pivots where a columnar plan crosses hosts (islands
// exchange rows, and the live splitter ships rows); the wire codec on
// the live engine only.
func (b *bench) execDrives(sys *qap.System, cfg qap.DeployConfig, m map[string]float64) error {
	batch := cfg.BatchSize
	if batch <= 0 {
		batch = defaultBatch
	}
	params := exec.Params(cfg.Params)
	in := newDriveInput(b.packets, batch, cfg.Columnar)
	if err := b.aggDrive(sys.Graph, in, params, cfg.Columnar, m); err != nil {
		return err
	}
	if err := b.joinDrive(sys.Graph, in, params, m); err != nil {
		return err
	}
	m["exec.pivot.to_cols_ns_per_row"], m["exec.pivot.to_rows_ns_per_row"] = 0, 0
	if cfg.Columnar && (cfg.Hosts > 1 || cfg.Engine == qap.EngineLive) {
		b.pivotDrive(in, m)
	}
	for _, k := range []string{"encode_ns_per_row", "decode_ns_per_row", "bytes_per_row", "decode_allocs_per_row"} {
		m["exec.wire."+k] = 0
	}
	if cfg.Engine == qap.EngineLive {
		return b.wireDrive(in, m)
	}
	return nil
}

// sanity lists the traced run's expected-profile checks that do not
// hold; they are printed, not fatal, because they describe the
// program's current profile rather than its correctness.
func (b *bench) sanity(m map[string]float64) []string {
	var out []string
	check := func(ok bool, format string, args ...any) {
		if !ok {
			out = append(out, fmt.Sprintf(format, args...))
		}
	}
	switch b.w.name {
	case "jitter-4host":
		// cluster and live enclose the operators the drives re-measure,
		// and check is the benchmark's own work, so they are not compared.
		for _, l := range layers {
			if l != "exec.join" && l != "cluster" && l != "live" && l != "check" {
				check(m["exec.join.self_s"] > m[l+".self_s"], "exec.join self time does not exceed %s's", l)
			}
		}
		check(sum(b.tr.durations("Join.Advance")) > sum(b.tr.durations("Join.PushBatch")),
			"join Advance time does not exceed its push time")
	case "fig8-local":
		for _, d := range perLayer {
			if strings.HasPrefix(d.name, "exec.join.") || strings.HasPrefix(d.name, "exec.wire.") {
				check(m[d.name] == 0, "%s is %v on a plan without joins or wire", d.name, m[d.name])
			}
		}
	}
	return out
}
