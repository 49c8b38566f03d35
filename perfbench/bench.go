package main

import (
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"qap"
	"qap/internal/difftest"
	"qap/internal/netgen"
)

// options are one run's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale multiplies the workload's trace duration; below 1 it gives
	// the smoke test's tiny inputs.
	scale float64
	// corruptReplay, when > 0, alters the output of that replay (1-based,
	// counting every checked replay of the run) before it is checked:
	// the self-test's proof that a wrong output fails the run.
	corruptReplay int
	spansOut      string
	log           io.Writer
}

// bench holds one run's inputs and its failure accounting.
type bench struct {
	o       options
	w       workload
	tr      *tracer
	packets []netgen.Packet
	// want is the reference's canonical output: the centralized,
	// sequential, tuple-at-a-time run that difftest uses as its oracle.
	want      string
	genTime   time.Duration
	attempted int
	failed    int
}

// replayStats is one measured Deployment.Run.
type replayStats struct {
	wall, cpu  time.Duration
	allocBytes uint64
	gcCPU      float64 // seconds
	gcCycles   uint64
	res        *qap.RunResult
}

func walls(rs []replayStats) []time.Duration {
	out := make([]time.Duration, len(rs))
	for i, r := range rs {
		out[i] = r.wall
	}
	return out
}

func cpus(rs []replayStats) []time.Duration {
	out := make([]time.Duration, len(rs))
	for i, r := range rs {
		out[i] = r.cpu
	}
	return out
}

// setupTimes is one fresh Load + Analyze + Deploy.
type setupTimes struct {
	load, analyze, deploy time.Duration
}

func (s setupTimes) total() time.Duration { return s.load + s.analyze + s.deploy }

func newBench(o options) (*bench, error) {
	w, err := findWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	b := &bench{o: o, w: w}
	if o.trace {
		b.tr = newTracer(w.name)
	}
	return b, nil
}

// traceConfig is the workload's trace at the run's seed and scale.
func (b *bench) traceConfig() netgen.Config {
	c := b.w.trace
	c.Seed = b.o.seed
	if b.o.scale != 1 {
		c.DurationSec = int(float64(c.DurationSec)*b.o.scale + 0.5)
		if c.DurationSec < 2 {
			c.DurationSec = 2
		}
	}
	return c
}

// generate builds the trace; its time is excluded from every other
// measurement and reported only as netgen.gen_s.
func (b *bench) generate() time.Duration {
	sp := b.tr.begin("netgen", "netgen.Generate", -1)
	start := now()
	b.packets = netgen.Generate(b.traceConfig()).Packets
	d := since(start)
	b.tr.end(sp)
	return d
}

// setup loads, analyzes and deploys the workload from scratch.
func (b *bench) setup(cfg qap.DeployConfig) (*qap.System, *qap.Analysis, *qap.Deployment, setupTimes, error) {
	var t setupTimes
	sp := b.tr.begin("plan", "qap.Load", -1)
	start := now()
	sys, err := qap.Load(qap.TCPSchemaDDL, b.w.queries)
	t.load = since(start)
	b.tr.end(sp)
	if err != nil {
		return nil, nil, nil, t, fmt.Errorf("load: %w", err)
	}
	sp = b.tr.begin("core", "qap.Analyze", -1)
	start = now()
	an, err := sys.Analyze(nil)
	t.analyze = since(start)
	b.tr.end(sp)
	if err != nil {
		return nil, nil, nil, t, fmt.Errorf("analyze: %w", err)
	}
	if b.w.recommended {
		cfg.Partitioning = an.Best
	}
	sp = b.tr.begin("optimizer", "qap.Deploy", -1)
	start = now()
	dep, err := sys.Deploy(cfg)
	t.deploy = since(start)
	b.tr.end(sp)
	if err != nil {
		return nil, nil, nil, t, fmt.Errorf("deploy: %w", err)
	}
	return sys, an, dep, t, nil
}

// reference runs the oracle configuration once, untimed.
func (b *bench) reference(sys *qap.System) error {
	sp := b.tr.begin("check", "reference", -1)
	defer b.tr.end(sp)
	dep, err := sys.Deploy(qap.DeployConfig{Hosts: 1, Workers: 1, BatchSize: 1,
		Params: b.w.deploy.Params, DriveTimeout: driveTimeout})
	if err != nil {
		return fmt.Errorf("reference deploy: %w", err)
	}
	run := b.tr.begin("cluster", "qap.Run", -1)
	res, err := dep.Run("TCP", b.packets)
	b.tr.end(run)
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	b.want = difftest.Canonical(res)
	return nil
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func readRuntime() (alloc uint64, gcCPU float64, cycles uint64) {
	metrics.Read(runtimeSamples)
	return runtimeSamples[0].Value.Uint64(), runtimeSamples[1].Value.Float64(),
		runtimeSamples[2].Value.Uint64()
}

// processCPU is the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS is the process's high-water resident set size in bytes.
func peakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 // Linux reports kilobytes
}

// replay runs the trace once through dep, then checks the output
// against the reference (outside the measured interval). It reports ok
// false for an error, a drive-deadline expiry, or a wrong output.
//
// Every replay starts from a collected heap, so its wall time, CPU,
// allocation and the heap peak it reaches do not depend on how much
// garbage the replay before it left; the collection itself is not
// measured.
func (b *bench) replay(dep *qap.Deployment, layer string) (replayStats, bool) {
	b.attempted++
	id := b.attempted
	var st replayStats
	runtime.GC()
	a0, g0, c0 := readRuntime()
	sp := b.tr.begin(layer, "qap.Run", id)
	cpu0 := processCPU()
	start := now()
	res, err := dep.Run("TCP", b.packets)
	st.wall = since(start)
	st.cpu = processCPU() - cpu0
	b.tr.end(sp)
	a1, g1, c1 := readRuntime()
	st.allocBytes, st.gcCPU, st.gcCycles = a1-a0, g1-g0, c1-c0
	if err != nil {
		b.failed++
		fmt.Fprintf(b.o.log, "replay %d failed: %v\n", id, err)
		return st, false
	}
	st.res = res
	sp = b.tr.begin("check", "canonical", id)
	got := difftest.Canonical(res)
	b.tr.end(sp)
	if id == b.o.corruptReplay {
		got += "corrupted by --corrupt-replay\n"
	}
	if got != b.want {
		b.failed++
		fmt.Fprintf(b.o.log, "replay %d: output differs from the reference\n", id)
		return st, false
	}
	return st, true
}

// keep appends st to rs, holding on to the run's result only for the
// first replay: results are large, and retaining every one would grow
// the heap, and with it peak RSS and GC work, with the run's length.
func keep(rs []replayStats, st replayStats) []replayStats {
	if len(rs) > 0 {
		st.res = nil
	}
	return append(rs, st)
}

// engineLayer names the layer a deployment's Run belongs to.
func engineLayer(cfg qap.DeployConfig) string {
	if cfg.Engine == qap.EngineLive {
		return "live"
	}
	return "cluster"
}

// A run's samples are taken in rounds spread over its measuring time,
// so a burst of load from elsewhere on the machine touches a few
// samples of each kind rather than all of one kind. Each round takes
// set-up samples, the cold first replays of coldsPerRound fresh
// deployments, and steady-state replays until its share of the
// measuring time is used. Set-ups cheaper than cheapSetup are sampled
// setupsPerRound times a round; costlier ones once every
// expensiveStride rounds.
const (
	rounds          = 7
	coldsPerRound   = 2
	cheapSetup      = 100 * time.Millisecond
	setupsPerRound  = 3
	expensiveStride = 3
)

// start generates the trace, makes the first set-up and computes the
// reference. It returns the system, the deployment config with the
// analysis's set, and the first set-up's times.
func (b *bench) start() (sys *qap.System, an *qap.Analysis, cfg qap.DeployConfig, first setupTimes, err error) {
	b.genTime = b.generate()
	if sys, an, _, first, err = b.setup(b.w.deploy); err != nil {
		return
	}
	if err = b.reference(sys); err != nil {
		return
	}
	cfg = b.w.deploy
	if b.w.recommended {
		cfg.Partitioning = an.Best
	}
	return
}

// deploy makes a fresh deployment of cfg on sys.
func (b *bench) deploy(sys *qap.System, cfg qap.DeployConfig) (*qap.Deployment, error) {
	sp := b.tr.begin("optimizer", "qap.Deploy", -1)
	defer b.tr.end(sp)
	dep, err := sys.Deploy(cfg)
	if err != nil {
		return nil, fmt.Errorf("deploy: %w", err)
	}
	return dep, nil
}

// samples are what the measuring rounds collect.
type samples struct {
	setups []setupTimes
	colds  []time.Duration
	warm   []replayStats
	// twin holds the replays of the twin deployment, each run right
	// after one of warm.
	twin []replayStats
}

// measure runs the rounds, spending about seconds on steady-state
// replays of one deployment of cfg after its warm-up replay. When twin
// is non-nil, each steady replay is followed by one of twin.
func (b *bench) measure(sys *qap.System, cfg qap.DeployConfig, first setupTimes, seconds float64, twin *qap.Deployment) (samples, error) {
	s := samples{setups: []setupTimes{first}}
	layer := engineLayer(cfg)
	dep, err := b.deploy(sys, cfg)
	if err != nil {
		return s, err
	}
	b.replay(dep, layer) // warm-up: size hints, pools, page faults
	if twin != nil {
		b.replay(twin, layer)
	}
	setupsThisRound := func(r int) int {
		switch {
		case first.total() < cheapSetup:
			return setupsPerRound
		case r%expensiveStride == 0:
			return 1
		}
		return 0
	}
	var steady time.Duration
	for r := 0; r < rounds; r++ {
		if setupsThisRound(r) > 0 {
			runtime.GC() // as before a replay: no collection left over from earlier work
		}
		for i := setupsThisRound(r); i > 0; i-- {
			_, _, _, t, err := b.setup(b.w.deploy)
			if err != nil {
				return s, err
			}
			s.setups = append(s.setups, t)
		}
		for i := 0; i < coldsPerRound; i++ {
			fresh, err := b.deploy(sys, cfg)
			if err != nil {
				return s, err
			}
			if st, ok := b.replay(fresh, layer); ok {
				s.colds = append(s.colds, st.wall)
			}
		}
		share := time.Duration(float64(r+1) / rounds * seconds * float64(time.Second))
		for i := 0; i < 1 || steady < share; i++ {
			start := now()
			if st, ok := b.replay(dep, layer); ok {
				s.warm = keep(s.warm, st)
			}
			if twin != nil {
				if st, ok := b.replay(twin, layer); ok {
					s.twin = keep(s.twin, st)
				}
			}
			steady += since(start)
		}
	}
	if len(s.warm) == 0 || len(s.colds) == 0 || (twin != nil && len(s.twin) == 0) {
		return s, fmt.Errorf("no replay produced the reference output")
	}
	return s, nil
}

// runUntraced measures the end-to-end metrics.
func (b *bench) runUntraced() (map[string]float64, error) {
	sys, _, cfg, first, err := b.start()
	if err != nil {
		return nil, err
	}
	s, err := b.measure(sys, cfg, first, b.o.seconds, nil)
	if err != nil {
		return nil, err
	}
	var alloc uint64
	for _, r := range s.warm {
		alloc += r.allocBytes
	}
	rows := float64(len(b.packets)) * float64(len(s.warm))
	setupTotals := make([]time.Duration, len(s.setups))
	for i, t := range s.setups {
		setupTotals[i] = t.total()
	}
	m := s.warm[0].res.Metrics
	return map[string]float64{
		"rows_per_s":           float64(len(b.packets)) / median(walls(s.warm)).Seconds(),
		"cpu_ns_per_row":       float64(sum(cpus(s.warm)).Nanoseconds()) / rows,
		"setup_s":              median(setupTotals).Seconds(),
		"cold_run_s":           median(s.colds).Seconds(),
		"alloc_bytes_per_row":  float64(alloc) / rows,
		"peak_rss_bytes":       peakRSS(),
		"aggregator_cpu_units": m.Hosts[0].CPUUnits,
	}, nil
}
