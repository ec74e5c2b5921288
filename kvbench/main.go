package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"mxtasking/internal/kvstore"
)

// setupRuns is how many times a run sets the system up; setup_s is the
// median and the last set-up is the one measured.
const setupRuns = 3

// fixedOpsStretch caps a fixed-count phase at this multiple of its
// nominal length, so a very slow program still ends within the run's
// time limit (with fewer requests than planned, which the report says).
const fixedOpsStretch = 4

func main() {
	var (
		workload = flag.String("workload", "", "workload: "+workloadNames())
		seed     = flag.Uint64("seed", 1, "seed the request streams are drawn from")
		seconds  = flag.Int("seconds", 10, "length of one timed phase in seconds")
		trace    = flag.Int("trace", 0, "1 = also run a traced phase and print the per-layer metrics")
		workDir  = flag.String("workdir", filepath.Join(".bench_build", "kvbench"), "directory for WAL directories and the spans file")
	)
	flag.Parse()
	sp, err := findSpec(*workload)
	if err == nil && (*seconds < 1 || *trace < 0 || *trace > 1) {
		err = fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	if err == nil {
		err = os.MkdirAll(*workDir, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "kvbench:", err)
		os.Exit(2)
	}
	res, err := run(sp, *seconds, *trace == 1, options{seed: *seed, workDir: *workDir})
	if err != nil {
		fmt.Fprintln(os.Stderr, "kvbench:", err)
		os.Exit(1)
	}
	for _, l := range res.lines {
		fmt.Println(l)
	}
	out, err := res.json()
	if err != nil {
		fmt.Fprintln(os.Stderr, "kvbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

type metric struct {
	name, unit string
	value      float64
}

type runResult struct {
	lines     []string // human-readable report
	metrics   []metric // the JSON result's metrics
	attempted uint64
	failed    uint64
}

func (r *runResult) say(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func (r *runResult) show(m metric, note string) {
	r.say("  %-32s %14.4f %-13s %s", m.name, m.value, m.unit, note)
}

func (r *runResult) json() ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(r.metrics))
	for _, m := range r.metrics {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		ms[m.name] = value{v, m.unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, ms})
}

// phaseResult is what one timed phase measured.
type phaseResult struct {
	elapsed                    time.Duration
	requests, keyOps, writeOps uint64
	failed                     uint64
	errs                       []string
	reads, writes, late        dist // the whole phase
	windows                    []phaseWindow
	cpu                        time.Duration // process CPU over the phase
	mallocs, allocBytes        uint64        // heap allocations over the phase
	before, after              counters
	spans                      []clientSpan
	inflightMax                int64
}

// phaseWindow is one full windowLen of a phase.
type phaseWindow struct {
	keyOps        uint64
	reads, writes dist
	cpu           time.Duration
	steal         float64 // s the hypervisor ran something else on this machine's CPUs
}

// runPhase drives the workload's traffic for one timed phase. With
// spans > 0 every client records that many request spans.
func (s *system) runPhase(plan phasePlan, spans int) *phaseResult {
	r := &phaseResult{before: s.snapshot()}
	start := time.Now()
	for _, c := range s.clients {
		c.resetResults(start, spans)
	}
	// Process CPU time and the machine's steal time at each window
	// boundary.
	cpuAt := []time.Duration{r.before.user + r.before.sys}
	stealAt := []float64{stealSeconds()}
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		for k := 1; ; k++ {
			select {
			case <-stop:
				return
			case <-time.After(time.Until(start.Add(time.Duration(k) * windowLen))):
				cpuAt = append(cpuAt, processCPU())
				stealAt = append(stealAt, stealSeconds())
			}
		}
	}()
	if s.sp.rate > 0 {
		gap := time.Duration(float64(time.Second) * conns / s.sp.rate)
		deadline := start.Add(plan.duration)
		s.eachClient(func(i int, c *client) {
			c.runOpen(start, gap*time.Duration(i)/conns, gap, deadline)
		})
	} else {
		deadline := start.Add(plan.duration)
		if plan.opsEach > 0 {
			deadline = start.Add(plan.duration * fixedOpsStretch)
		}
		s.eachClient(func(_ int, c *client) { c.runClosed(s.sp.depth, deadline, plan.opsEach) })
	}
	r.elapsed = time.Since(start)
	close(stop)
	<-sampled
	r.after = s.snapshot()

	full := min(int(r.elapsed/windowLen), len(cpuAt)-1)
	r.windows = make([]phaseWindow, full)
	var reads, writes, late []*samples
	for i := range r.windows {
		r.windows[i].cpu = cpuAt[i+1] - cpuAt[i]
		r.windows[i].steal = stealAt[i+1] - stealAt[i]
	}
	for _, c := range s.clients {
		r.requests += c.requests
		r.keyOps += c.keyOps
		r.failed += c.failed
		r.errs = append(r.errs, c.errs...)
		late = append(late, &c.late)
		r.spans = append(r.spans, c.spans...)
		for i := range c.wins {
			w := &c.wins[i]
			reads, writes = append(reads, &w.reads), append(writes, &w.writes)
			r.writeOps += uint64(w.writes.len())
			if i < full {
				r.windows[i].keyOps += w.keyOps
			}
		}
	}
	for i := range r.windows {
		var rs, ws []*samples
		for _, c := range s.clients {
			if i < len(c.wins) {
				rs, ws = append(rs, &c.wins[i].reads), append(ws, &c.wins[i].writes)
			}
		}
		r.windows[i].reads, r.windows[i].writes = sortedOf(rs...), sortedOf(ws...)
	}
	r.reads, r.writes, r.late = sortedOf(reads...), sortedOf(writes...), sortedOf(late...)
	r.cpu = r.after.user + r.after.sys - r.before.user - r.before.sys
	r.mallocs, r.allocBytes = r.after.mallocs-r.before.mallocs, r.after.allocBytes-r.before.allocBytes
	r.inflightMax = s.srv.Metrics().InFlight.Max()
	return r
}

// pool combines the phases run on each set-up into one result.
func pool(ps []*phaseResult) *phaseResult {
	r := &phaseResult{}
	var reads, writes, late []int64
	for _, p := range ps {
		r.elapsed += p.elapsed
		r.requests += p.requests
		r.keyOps += p.keyOps
		r.writeOps += p.writeOps
		r.failed += p.failed
		r.errs = append(r.errs, p.errs...)
		r.windows = append(r.windows, p.windows...)
		r.cpu += p.cpu
		r.mallocs += p.mallocs
		r.allocBytes += p.allocBytes
		reads, writes, late = append(reads, p.reads...), append(writes, p.writes...), append(late, p.late...)
	}
	slices.Sort(reads)
	slices.Sort(writes)
	slices.Sort(late)
	r.reads, r.writes, r.late = reads, writes, late
	return r
}

// perWindow returns f of the phase's typical window: the median of f
// over its quiet full windows, or f of the whole phase when it had no full
// window.
func (r *phaseResult) perWindow(f func(w *phaseWindow) float64) float64 {
	if len(r.windows) == 0 {
		whole := phaseWindow{keyOps: r.keyOps, reads: r.reads, writes: r.writes, cpu: r.cpu}
		return f(&whole)
	}
	quiet := r.quietWindows()
	vals := make([]float64, len(quiet))
	for i, w := range quiet {
		vals[i] = f(w)
	}
	return median(vals)
}

// stealSlack is the steal a window may have beyond the quietest one's
// and still count as quiet: 1% of two CPUs' time in the window.
const stealSlack = 0.02

// quietWindows returns the full windows in which the machine lost the
// least CPU time to steal — time the hypervisor gave this machine's CPUs
// to other guests: those within stealSlack of the quietest, and at least
// half of all. On a shared host steal comes in bursts that stretch every
// latency and cut throughput while they last; the windows without it
// measure the program.
func (r *phaseResult) quietWindows() []*phaseWindow {
	ws := make([]*phaseWindow, len(r.windows))
	for i := range r.windows {
		ws[i] = &r.windows[i]
	}
	slices.SortStableFunc(ws, func(a, b *phaseWindow) int { return cmp.Compare(a.steal, b.steal) })
	n := (len(ws) + 1) / 2
	for n < len(ws) && ws[n].steal <= ws[0].steal+stealSlack {
		n++
	}
	return ws[:n]
}

// windowSummary describes the windows the figures come from.
func (r *phaseResult) windowSummary() string {
	var total, quiet float64
	for i := range r.windows {
		total += r.windows[i].steal
	}
	for _, w := range r.quietWindows() {
		quiet += w.steal
	}
	return fmt.Sprintf("%d windows of %v, %d quiet ones used; steal %.2f s in all, %.2f s in those",
		len(r.windows), windowLen, len(r.quietWindows()), total, quiet)
}

// windowList lists each window's throughput and steal.
func (r *phaseResult) windowList() string {
	var parts []string
	for _, w := range r.windows {
		parts = append(parts, fmt.Sprintf("%.0f/%.2f", float64(w.keyOps)/windowLen.Seconds(), w.steal))
	}
	return strings.Join(parts, " ")
}

func (r *phaseResult) throughput() float64 {
	if len(r.windows) == 0 {
		return ratio(float64(r.keyOps), r.elapsed.Seconds())
	}
	return r.perWindow(func(w *phaseWindow) float64 { return float64(w.keyOps) / windowLen.Seconds() })
}

// run sets the workload up setupRuns times, measures one timed phase
// (and with traced a second, traced one), reopens a durable store, and
// reports.
func run(sp spec, seconds int, traced bool, opt options) (*runResult, error) {
	base := time.Now()
	var z *zipf
	if sp.zipf {
		z = newZipf(uint64(sp.records), 0.99)
	}
	var tr *tracer
	if traced {
		tr = newTracer(base)
		inner := opt.wrap
		opt.wrap = func(b kvstore.Backend) kvstore.Backend {
			if inner != nil {
				b = inner(b)
			}
			return &tracedBackend{Backend: b, t: tr}
		}
	}

	res := &runResult{}
	loop := fmt.Sprintf("closed loop, %d in flight per connection", sp.depth)
	if sp.rate > 0 {
		loop = fmt.Sprintf("open loop at %.0f req/s", sp.rate)
	}
	res.say("kvbench %s seed=%d: %d records, %d connections, %s, %d CPUs, %s",
		sp.name, opt.seed, sp.records, conns, loop, runtime.NumCPU(), runtime.Version())

	// Each set-up is measured for its share of the run; the figures come
	// from the windows of all of them.
	plan := sp.plan(seconds)
	var sys *system
	var setups, heaps []float64
	var phases []*phaseResult
	for i := 0; i < setupRuns; i++ {
		if sys != nil {
			if err := sys.stop(); err != nil {
				return nil, fmt.Errorf("tear down set-up %d: %w", i, err)
			}
			runtime.GC()
		}
		s, err := startSystem(&sp, z, base, opt)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		sys = s
		setups = append(setups, s.setup.Seconds())
		heaps = append(heaps, s.heapPerRec)
		res.attempted += uint64(sp.warmupOps * conns)
		res.failed += s.warmupFailed
		for _, e := range s.warmupErrs {
			res.say("  ERROR warm-up: %s", e)
		}
		p := sys.runPhase(plan, 0)
		if plan.opsEach > 0 && p.requests < uint64(plan.opsEach*conns) {
			res.say("  NOTE: phase %d stopped at the time cap after %d of %d requests", i+1, p.requests, plan.opsEach*conns)
		}
		phases = append(phases, p)
	}
	defer sys.stop()
	p := pool(phases)
	res.attempted += p.requests
	res.failed += p.failed
	for _, e := range p.errs {
		res.say("  ERROR: %s", e)
	}

	ops := float64(p.keyOps)
	e2e := []metric{
		{"throughput_ops_s", "ops/s", p.throughput()},
		{"read_p50_us", "us", p.perWindow(func(w *phaseWindow) float64 { return w.reads.quantileUS(0.5) })},
		{"read_p99_us", "us", p.perWindow(func(w *phaseWindow) float64 { return w.reads.quantileUS(0.99) })},
		{"cpu_us_per_op", "us/op", p.perWindow(func(w *phaseWindow) float64 { return ratio(w.cpu.Seconds()*1e6, float64(w.keyOps)) })},
		{"allocs_per_op", "allocs/op", ratio(float64(p.mallocs), ops)},
		{"alloc_bytes_per_op", "B/op", ratio(float64(p.allocBytes), ops)},
		{"heap_bytes_per_record", "B/record", median(heaps)},
		{"setup_s", "s", median(append([]float64(nil), setups...))},
	}
	res.say("end to end (tracing off, %d phases of %.2f s in all, %d requests, %d key operations; %s):",
		len(phases), p.elapsed.Seconds(), p.requests, p.keyOps, p.windowSummary())
	res.say("  windows (ops/s / steal s): %s", p.windowList())
	for _, m := range e2e {
		note := ""
		switch m.name {
		case "read_p50_us":
			note = fmt.Sprintf("n=%d; whole phase %.1f", len(p.reads), p.reads.quantileUS(0.5))
		case "read_p99_us":
			note = fmt.Sprintf("n=%d; whole phase %.1f", len(p.reads), p.reads.quantileUS(0.99))
		case "throughput_ops_s", "cpu_us_per_op":
			note = "median of the quiet windows"
		case "setup_s":
			note = fmt.Sprintf("median of %s; last: load %.3f, warm-up %.3f",
				fmtList(setups), sys.load.Seconds(), sys.warmup.Seconds())
		}
		res.show(m, note)
	}
	writeP50 := metric{"loadgen.write_p50_us", "us", p.perWindow(func(w *phaseWindow) float64 { return w.writes.quantileUS(0.5) })}
	writeP99 := metric{"loadgen.write_p99_us", "us", p.perWindow(func(w *phaseWindow) float64 { return w.writes.quantileUS(0.99) })}
	if len(p.writes) > 0 {
		res.show(metric{"write_p50_us", "us", writeP50.value}, fmt.Sprintf("n=%d", len(p.writes)))
		res.show(metric{"write_p99_us", "us", writeP99.value}, fmt.Sprintf("n=%d", len(p.writes)))
	}

	var layers []metric
	var notes []string
	if traced {
		tr.start()
		tp := sys.runPhase(plan, spanCap/conns)
		keySpans, batchSpans := tr.stop()
		res.attempted += tp.requests
		res.failed += tp.failed
		for _, e := range tp.errs {
			res.say("  ERROR (traced): %s", e)
		}
		layers, notes = layerMetrics(&sp, tp, keySpans, batchSpans, tr.calls.Load(), tr.keys.Load())
		layers = append(layers,
			metric{"loadgen.allocs_per_op", "allocs/op", generatorAllocs(&sp, z, opt.seed)},
			writeP50, writeP99)
		if len(p.writes) == 0 {
			notes = append(notes, "loadgen.write_* are 0: the workload sends no SETs")
		}
		// Against the untraced phase of the same set-up.
		untraced, tracedTput := phases[len(phases)-1].throughput(), tp.throughput()
		overhead := ratio(untraced-tracedTput, untraced)
		layers = append(layers, metric{"trace.overhead_ratio", "ratio", overhead})
		res.say("tracing overhead: untraced %.0f ops/s, traced %.0f ops/s, %.1f%% lower traced",
			untraced, tracedTput, 100*overhead)
		if sp.rate > 0 {
			res.say("  (open loop: throughput is the offered rate; read p50 untraced %.1f us, traced %.1f us)",
				phases[len(phases)-1].reads.quantileUS(0.5), tp.reads.quantileUS(0.5))
		}
		path := filepath.Join(opt.workDir, "spans-"+sp.name+".bin")
		if err := writeSpans(path, tp.spans, keySpans, batchSpans); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		res.say("spans: %d client, %d backend key, %d backend batch written to %s",
			len(tp.spans), len(keySpans), len(batchSpans), path)
	}

	if sp.durable {
		rec, err := sys.reopen()
		if err != nil {
			return nil, err
		}
		res.attempted += rec.checked
		res.failed += rec.lost
		for _, e := range rec.lostErrs {
			res.say("  ERROR: %s", e)
		}
		replayed := float64(rec.replay.Records + rec.replay.SnapshotPairs)
		res.show(metric{"recovery_s", "s", rec.took.Seconds()},
			fmt.Sprintf("%.0f records replayed; %d records checked, %d wrong", replayed, rec.checked, rec.lost))
		layers = append(layers,
			metric{"store.recovery_s", "s", rec.took.Seconds()},
			metric{"wal.replay_records_per_s", "records/s", ratio(replayed, rec.took.Seconds())})
	} else {
		layers = append(layers, metric{"store.recovery_s", "s", 0}, metric{"wal.replay_records_per_s", "records/s", 0})
		notes = append(notes, "store.recovery_s and wal.replay_records_per_s are 0: the store is in memory, nothing to recover")
	}
	res.show(metric{"error_rate", "ratio", ratio(float64(res.failed), float64(res.attempted))},
		fmt.Sprintf("%d of %d requests and checks failed", res.failed, res.attempted))

	res.metrics = e2e
	if traced {
		res.say("per layer (traced phase):")
		for _, m := range layers {
			res.show(m, "")
		}
		for _, n := range notes {
			res.say("  note: %s", n)
		}
		res.metrics = layers
	}
	return res, nil
}

func fmtList(xs []float64) string {
	var parts []string
	for _, x := range xs {
		parts = append(parts, fmt.Sprintf("%.3f", x))
	}
	return strings.Join(parts, " ")
}

// generatorAllocs measures the load generator's own allocations per key
// operation: it runs the per-request path — draw, encode, decode a
// correct reply, check, record latency — with no socket in between, while
// the rest of the process is idle.
func generatorAllocs(sp *spec, z *zipf, seed uint64) float64 {
	c := newClient(sp, nil, newGenerator(sp, z, seed, 0, genGap(sp)), newChecker(sp, 0), time.Now(), max(sp.depth, 1))
	var reply []byte
	step := func() {
		c.issue(c.now())
		reply = correctReply(reply[:0], &c.slots[c.head.Load()%uint64(len(c.slots))])
		c.complete(reply, c.now())
		c.wbuf = c.wbuf[:0]
	}
	for i := 0; i < 1000; i++ {
		step()
	}
	const n = 20_000
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		step()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n*sp.keysPerRequest())
}

// correctReply appends the reply a correct server gives to slot s.
func correctReply(b []byte, s *slot) []byte {
	switch s.o.kind {
	case 'G':
		key := keyOf(s.o.idx)
		b = append(b, "VALUE "...)
		b = strconv.AppendUint(b, valueOf(key, s.floor), 10)
	case 'S':
		b = append(b, "OVERWRITTEN"...)
	case 'M':
		b = append(b, "VALUES"...)
		for _, idx := range s.o.mget {
			key := keyOf(idx)
			b = append(b, ' ')
			b = strconv.AppendUint(b, valueOf(key, 0), 10)
		}
	}
	return append(b, '\n')
}
