package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"slices"
	"sync/atomic"
	"syscall"
	"time"

	"mxtasking/internal/blinktree"
	"mxtasking/internal/kvstore"
	"mxtasking/internal/mxtask"
)

// spanCap bounds each span buffer of one traced phase (client requests,
// backend keys, backend batch calls): the first spanCap spans are kept,
// so a traced phase's memory stays bounded whatever its length.
const spanCap = 1 << 19

// spanBuf keeps the first len(spans) spans recorded into it, from any
// goroutine, without locks.
type spanBuf struct {
	spans []backendSpan
	next  atomic.Int64 // spans reserved
	done  atomic.Int64 // spans written
}

func (b *spanBuf) record(s backendSpan) {
	i := b.next.Add(1) - 1
	if i < int64(len(b.spans)) {
		b.spans[i] = s
		b.done.Add(1)
	}
}

// kept returns the spans recorded. Every callback has run by then (its
// reply reached the client), so the wait only orders the last writes
// before the reads.
func (b *spanBuf) kept() []backendSpan {
	n := min(b.next.Load(), int64(len(b.spans)))
	for b.done.Load() < n {
		runtime.Gosched()
	}
	return b.spans[:n]
}

func (b *spanBuf) reset() {
	b.next.Store(0)
	b.done.Store(0)
}

// tracer records, while on, a span from each Backend call the server
// makes to each key's callback, and for batch calls a span to the last
// callback. Counts of calls and keys cover the whole traced phase.
type tracer struct {
	base  time.Time
	on    atomic.Bool
	calls atomic.Uint64
	keys  atomic.Uint64
	key   spanBuf // kinds 'g' and 's'
	batch spanBuf // kinds 'G' and 'S'
}

// backendSpan kinds: 'g' / 's' one key of a Get(Batch) / Set(Batch)
// call, 'G' / 'S' a whole GetBatch / SetBatch call (to its last
// callback). key is the span's key, or a batch's first key.
type backendSpan struct {
	key        uint64
	start, end int64
	size       uint32
	kind       byte
}

func newTracer(base time.Time) *tracer {
	t := &tracer{base: base}
	t.key.spans = make([]backendSpan, spanCap)
	t.batch.spans = make([]backendSpan, spanCap)
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// start begins a traced phase with no spans and zero counts.
func (t *tracer) start() {
	t.calls.Store(0)
	t.keys.Store(0)
	t.key.reset()
	t.batch.reset()
	t.on.Store(true)
}

// stop ends the traced phase and returns the spans kept.
func (t *tracer) stop() (keySpans, batchSpans []backendSpan) {
	t.on.Store(false)
	return t.key.kept(), t.batch.kept()
}

// tracedBackend is the Backend the server drives in traced mode.
type tracedBackend struct {
	kvstore.Backend
	t *tracer
}

func (b *tracedBackend) Get(key uint64, done func(kvstore.Result)) {
	t := b.t
	if !t.on.Load() {
		b.Backend.Get(key, done)
		return
	}
	t.calls.Add(1)
	t.keys.Add(1)
	start := t.now()
	b.Backend.Get(key, func(r kvstore.Result) {
		t.key.record(backendSpan{key: key, start: start, end: t.now(), size: 1, kind: 'g'})
		done(r)
	})
}

func (b *tracedBackend) Set(key, value uint64, done func(kvstore.Result)) {
	t := b.t
	if !t.on.Load() {
		b.Backend.Set(key, value, done)
		return
	}
	t.calls.Add(1)
	t.keys.Add(1)
	start := t.now()
	b.Backend.Set(key, value, func(r kvstore.Result) {
		t.key.record(backendSpan{key: key, start: start, end: t.now(), size: 1, kind: 's'})
		done(r)
	})
}

func (b *tracedBackend) GetBatch(keys []uint64, each func(int, kvstore.Result)) {
	t := b.t
	if !t.on.Load() || len(keys) == 0 {
		b.Backend.GetBatch(keys, each)
		return
	}
	ks := slices.Clone(keys)
	each = t.batchCallbacks(ks, 'g', each)
	b.Backend.GetBatch(keys, each)
}

func (b *tracedBackend) SetBatch(pairs []blinktree.KV, each func(int, kvstore.Result)) {
	t := b.t
	if !t.on.Load() || len(pairs) == 0 {
		b.Backend.SetBatch(pairs, each)
		return
	}
	ks := make([]uint64, len(pairs))
	for i, kv := range pairs {
		ks[i] = kv.Key
	}
	each = t.batchCallbacks(ks, 's', each)
	b.Backend.SetBatch(pairs, each)
}

// batchCallbacks counts a batch call of keys and wraps its per-key
// callback to record each key's span and, at the last callback, the
// call's span.
func (t *tracer) batchCallbacks(keys []uint64, kind byte, each func(int, kvstore.Result)) func(int, kvstore.Result) {
	n := uint32(len(keys))
	t.calls.Add(1)
	t.keys.Add(uint64(n))
	start := t.now()
	var left atomic.Int64
	left.Store(int64(n))
	return func(i int, r kvstore.Result) {
		end := t.now()
		t.key.record(backendSpan{key: keys[i], start: start, end: end, size: n, kind: kind})
		if left.Add(-1) == 0 {
			t.batch.record(backendSpan{key: keys[0], start: start, end: end, size: n, kind: kind - 'a' + 'A'})
		}
		each(i, r)
	}
}

// writeSpans writes both sides' spans to path in little-endian binary:
// per span, key u64, start i64, end i64 (ns since the run's time origin),
// size u32, kind u8, side u8 ('c' client request, 'b' backend).
func writeSpans(path string, cs []clientSpan, bs ...[]backendSpan) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	var rec [30]byte
	put := func(key uint64, start, end int64, size uint32, kind, side byte) {
		binary.LittleEndian.PutUint64(rec[0:], key)
		binary.LittleEndian.PutUint64(rec[8:], uint64(start))
		binary.LittleEndian.PutUint64(rec[16:], uint64(end))
		binary.LittleEndian.PutUint32(rec[24:], size)
		rec[28], rec[29] = kind, side
		w.Write(rec[:]) // a failed write surfaces at Flush
	}
	for _, s := range cs {
		put(s.key, s.start, s.end, uint32(s.size), s.kind, 'c')
	}
	for _, b := range bs {
		for _, s := range b {
			put(s.key, s.start, s.end, s.size, s.kind, 'b')
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes pairs each client request with the backend span it caused —
// a GET or SET with its key's span, an MGET with its GetBatch call — by
// key and issue order, and returns client span − backend span for every
// unambiguous pair. A key's pairing is unambiguous when both sides hold
// the same number of spans for it and each backend span lies inside the
// client span it is paired with.
func selfTimes(cs []clientSpan, keySpans, batchSpans []backendSpan) (self dist, total int) {
	type ends struct {
		class      byte
		key        uint64
		start, end int64
	}
	var cl, bl []ends
	for _, c := range cs {
		class := c.kind // 'G', 'S' or 'M'
		cl = append(cl, ends{class, c.key, c.start, c.end})
	}
	for _, b := range keySpans {
		bl = append(bl, ends{b.kind - 'a' + 'A', b.key, b.start, b.end})
	}
	for _, b := range batchSpans {
		if b.kind == 'G' {
			bl = append(bl, ends{'M', b.key, b.start, b.end})
		}
	}
	cmp := func(a, b ends) int {
		switch {
		case a.class != b.class:
			return int(a.class) - int(b.class)
		case a.key != b.key:
			if a.key < b.key {
				return -1
			}
			return 1
		}
		return int(a.start - b.start)
	}
	slices.SortFunc(cl, cmp)
	slices.SortFunc(bl, cmp)
	var out []int64
	i, j := 0, 0
	for i < len(cl) {
		ci := i
		for i < len(cl) && cl[i].class == cl[ci].class && cl[i].key == cl[ci].key {
			i++
		}
		for j < len(bl) && cmp(ends{bl[j].class, bl[j].key, 0, 0}, ends{cl[ci].class, cl[ci].key, 0, 0}) < 0 {
			j++
		}
		bj := j
		for j < len(bl) && bl[j].class == cl[ci].class && bl[j].key == cl[ci].key {
			j++
		}
		cg, bg := cl[ci:i], bl[bj:j]
		if len(cg) != len(bg) {
			continue
		}
		ok := true
		for k := range cg {
			if cg[k].start > bg[k].start || bg[k].end > cg[k].end {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for k := range cg {
			out = append(out, (cg[k].end-cg[k].start)-(bg[k].end-bg[k].start))
		}
	}
	slices.Sort(out)
	return dist(out), len(cl)
}

// counters is a snapshot of every cumulative counter the per-layer and
// resource metrics are deltas of.
type counters struct {
	rt                             mxtask.WorkerStats
	coreHits, procRefs, globalRefs uint64
	walAppends, walBatches         uint64
	walSyncs, walBytes             uint64
	fsyncN, ackN                   uint64
	fsyncSum, ackSum               float64 // ns
	depthN                         uint64
	depthSum                       float64
	user, sys                      time.Duration
	mallocs, allocBytes            uint64
	gcCPU, totalCPU                float64 // s
	sched                          *rtmetrics.Float64Histogram
}

func (s *system) snapshot() counters {
	var c counters
	c.rt = s.store.Runtime().Stats()
	a := s.store.Runtime().AllocStats()
	c.coreHits, c.procRefs, c.globalRefs = a.CoreHits.Load(), a.ProcessorRefs.Load(), a.GlobalRefs.Load()
	if w := s.store.WALMetrics(); w != nil {
		c.walAppends, c.walBatches = w.Appends.Load(), w.Batches.Load()
		c.walSyncs, c.walBytes = w.Syncs.Load(), w.Bytes.Load()
		c.fsyncN, c.ackN = w.FsyncLatency.Count(), w.AckLatency.Count()
		// Mean is sum/count rounded down to a nanosecond, so this recovers
		// the sum to within count ns.
		c.fsyncSum = float64(w.FsyncLatency.Mean()) * float64(c.fsyncN)
		c.ackSum = float64(w.AckLatency.Mean()) * float64(c.ackN)
	}
	d := &s.srv.Metrics().Depth
	c.depthN = d.Count()
	c.depthSum = d.Mean() * float64(c.depthN)

	c.user, c.sys = processTimes()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.allocBytes = ms.Mallocs, ms.TotalAlloc

	rs := []rtmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/sched/latencies:seconds"},
	}
	rtmetrics.Read(rs)
	if rs[0].Value.Kind() == rtmetrics.KindFloat64 {
		c.gcCPU = rs[0].Value.Float64()
	}
	if rs[1].Value.Kind() == rtmetrics.KindFloat64 {
		c.totalCPU = rs[1].Value.Float64()
	}
	if rs[2].Value.Kind() == rtmetrics.KindFloat64Histogram {
		c.sched = rs[2].Value.Float64Histogram()
	}
	return c
}

// processTimes returns the process's user and system CPU time so far.
func processTimes() (user, sys time.Duration) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano())
}

// stealSeconds returns the CPU time the hypervisor has so far given this
// machine's CPUs to other guests (the steal column of /proc/stat), or 0
// where that is not available.
func stealSeconds() float64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0
	}
	defer f.Close()
	var user, nice, system, idle, iowait, irq, softirq, steal float64
	if _, err := fmt.Fscanf(f, "cpu %f %f %f %f %f %f %f %f", &user, &nice, &system, &idle, &iowait, &irq, &softirq, &steal); err != nil {
		return 0
	}
	const userHZ = 100 // /proc/stat's clock ticks per second on Linux
	return steal / userHZ
}

func processCPU() time.Duration {
	user, sys := processTimes()
	return user + sys
}

// schedP99 returns the 99th percentile of goroutine scheduling latency
// between two snapshots, in µs, as the upper bound of the runtime
// histogram's bucket that holds it.
func schedP99(a, b *rtmetrics.Float64Histogram) float64 {
	if a == nil || b == nil || len(a.Counts) != len(b.Counts) {
		return 0
	}
	var total uint64
	for i := range b.Counts {
		total += b.Counts[i] - a.Counts[i]
	}
	if total == 0 {
		return 0
	}
	target := uint64(float64(total)*0.99 + 0.5)
	var cum uint64
	for i := range b.Counts {
		cum += b.Counts[i] - a.Counts[i]
		if cum >= target {
			hi := b.Buckets[i+1]
			if hi > 1e9 { // +Inf bucket
				hi = b.Buckets[i]
			}
			return hi * 1e6
		}
	}
	return 0
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerMetrics computes the per-layer metrics of one traced phase.
func layerMetrics(sp *spec, r *phaseResult, keySpans, batchSpans []backendSpan, calls, keys uint64) (m []metric, notes []string) {
	b, a := r.before, r.after
	ops := float64(r.keyOps)
	add := func(name, unit string, v float64) { m = append(m, metric{name, unit, v}) }

	// loadgen
	add("loadgen.late_p99_us", "us", r.late.quantileUS(0.99))
	if sp.rate == 0 {
		notes = append(notes, "loadgen.late_p99_us is 0: closed loop, requests have no due time")
	}

	// kvstore server
	self, total := selfTimes(r.spans, keySpans, batchSpans)
	p50, p99 := self.quantileUS(0.5), self.quantileUS(0.99)
	if len(self) < total/2 {
		// Too few unambiguous pairs: fall back to layer means.
		var cm float64
		for _, c := range r.spans {
			cm += float64(c.end - c.start)
		}
		cm /= float64(max(len(r.spans), 1))
		child := keySpans
		if sp.mget > 0 {
			child = batchSpans
		}
		var bm float64
		for _, s := range child {
			bm += float64(s.end - s.start)
		}
		bn := len(child)
		mean := (cm - bm/float64(max(bn, 1))) / 1e3
		p50, p99 = mean, mean
		notes = append(notes, fmt.Sprintf("server.self_p50_us/p99_us are the mean client span minus the mean backend span: only %d of %d requests paired unambiguously", len(self), total))
	} else {
		notes = append(notes, fmt.Sprintf("server self time from %d of %d traced requests paired by key and issue order", len(self), total))
	}
	add("server.self_p50_us", "us", p50)
	add("server.self_p99_us", "us", p99)
	add("server.keys_per_backend_call", "keys/call", ratio(float64(keys), float64(calls)))
	add("server.depth_mean", "requests", ratio(a.depthSum-b.depthSum, float64(a.depthN-b.depthN)))
	add("server.inflight_max", "requests", float64(r.inflightMax))

	// kvstore store (Backend)
	var gets, sets, batches samples
	for _, s := range keySpans {
		if s.kind == 'g' {
			gets.add(s.end - s.start)
		} else {
			sets.add(s.end - s.start)
		}
	}
	for _, s := range batchSpans {
		batches.add(s.end - s.start)
	}
	gd, sd, bd := sortedOf(&gets), sortedOf(&sets), sortedOf(&batches)
	add("store.get_p50_us", "us", gd.quantileUS(0.5))
	add("store.get_p99_us", "us", gd.quantileUS(0.99))
	add("store.set_p50_us", "us", sd.quantileUS(0.5))
	add("store.set_p99_us", "us", sd.quantileUS(0.99))
	add("store.batch_p50_us", "us", bd.quantileUS(0.5))
	add("store.batch_p99_us", "us", bd.quantileUS(0.99))
	if len(sd) == 0 {
		notes = append(notes, "store.set_* are 0: the workload sends no SETs")
	}

	// blinktree (interleaved group descents)
	cursors := float64(a.rt.InterleaveCursors - b.rt.InterleaveCursors)
	add("blinktree.steps_per_cursor", "nodes/cursor", ratio(float64(a.rt.InterleaveSteps-b.rt.InterleaveSteps), cursors))
	add("blinktree.fallback_ratio", "ratio", ratio(float64(a.rt.InterleaveFallbacks-b.rt.InterleaveFallbacks), cursors))
	add("blinktree.retired_ratio", "ratio", ratio(float64(a.rt.InterleaveRetired-b.rt.InterleaveRetired), cursors))
	if cursors == 0 {
		notes = append(notes, "blinktree.* are 0: no batch was wide enough for a group descent")
	}

	// mxtask
	executed := float64(a.rt.Executed - b.rt.Executed)
	add("mxtask.tasks_per_op", "tasks/op", ratio(executed, ops))
	add("mxtask.spawned_per_op", "tasks/op", ratio(float64(a.rt.Spawned-b.rt.Spawned), ops))
	add("mxtask.prefetches_per_op", "prefetches/op", ratio(float64(a.rt.Prefetches-b.rt.Prefetches), ops))
	add("mxtask.read_retries_per_op", "retries/op", ratio(float64(a.rt.ReadRetries-b.rt.ReadRetries), ops))
	add("mxtask.fastpath_ratio", "ratio", ratio(float64(a.rt.LocalFastPath-b.rt.LocalFastPath), executed))

	// alloc (the runtime's task allocator)
	hits := float64(a.coreHits - b.coreHits)
	add("alloc.core_hit_ratio", "ratio", ratio(hits, hits+float64(a.procRefs-b.procRefs)))
	add("alloc.global_refs_per_mop", "refs/Mop", ratio(float64(a.globalRefs-b.globalRefs)*1e6, ops))

	// wal
	appends := float64(a.walAppends - b.walAppends)
	add("wal.records_per_batch", "records/batch", ratio(appends, float64(a.walBatches-b.walBatches)))
	add("wal.syncs_per_write", "syncs/write", ratio(float64(a.walSyncs-b.walSyncs), float64(r.writeOps)))
	add("wal.fsync_mean_us", "us", ratio(a.fsyncSum-b.fsyncSum, float64(a.fsyncN-b.fsyncN))/1e3)
	add("wal.ack_mean_us", "us", ratio(a.ackSum-b.ackSum, float64(a.ackN-b.ackN))/1e3)
	// A user byte is a SET's 8-byte key plus its 8-byte value.
	add("wal.bytes_per_user_byte", "B/B", ratio(float64(a.walBytes-b.walBytes), 16*float64(r.writeOps)))
	if !sp.durable {
		notes = append(notes, "wal.* are 0: the store has no write-ahead log on this workload")
	}

	// Go runtime
	add("goruntime.gc_cpu_fraction", "ratio", ratio(a.gcCPU-b.gcCPU, a.totalCPU-b.totalCPU))
	add("goruntime.sched_latency_p99_us", "us", schedP99(b.sched, a.sched))
	add("goruntime.cpu_sys_fraction", "ratio", ratio(float64(a.sys-b.sys), float64(a.user-b.user+a.sys-b.sys)))
	return m, notes
}
