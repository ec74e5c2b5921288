package main

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mxtasking/internal/blinktree"
	"mxtasking/internal/kvstore"
)

// small returns workload name shrunk to run in about a second.
func small(t *testing.T, name string) spec {
	t.Helper()
	sp, err := findSpec(name)
	if err != nil {
		t.Fatal(err)
	}
	sp.records = 4000
	sp.warmupOps = 200
	if sp.opsPerSecond > 0 {
		sp.opsPerSecond = 4000
	}
	if sp.rate > 0 {
		sp.rate = 4000
	}
	return sp
}

func TestRunClean(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := run(small(t, w.name), 1, w.name == "update-durable", options{seed: 3, workDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Fatalf("failed %d of %d:\n%v", res.failed, res.attempted, res.lines)
			}
			if out, err := res.json(); err != nil || !jsonCorrect(out) {
				t.Errorf("result %s (%v) not correct", out, err)
			}
		})
	}
}

func jsonCorrect(out []byte) bool {
	return len(out) > 0 && string(out[:len(`{"correct":true`)]) == `{"correct":true`
}

// faultyBackend injects one kind of fault into the replies for one key in
// eight.
type faultyBackend struct {
	kvstore.Backend
	fault string // "wrong", "missing", "err" or "lost"
}

func faulty(key uint64) bool { return key%8 == 0 }

func (b *faultyBackend) spoil(key uint64, r kvstore.Result) kvstore.Result {
	if faulty(key) {
		switch b.fault {
		case "wrong":
			r.Value ^= 1 << 41
		case "missing":
			r.Found = false
		case "err":
			r.Err = errors.New("injected")
		}
	}
	return r
}

func (b *faultyBackend) Get(key uint64, done func(kvstore.Result)) {
	b.Backend.Get(key, func(r kvstore.Result) { done(b.spoil(key, r)) })
}

func (b *faultyBackend) GetBatch(keys []uint64, each func(int, kvstore.Result)) {
	b.Backend.GetBatch(keys, func(i int, r kvstore.Result) { each(i, b.spoil(keys[i], r)) })
}

// Set and SetBatch acknowledge a "lost" write without storing it.
func (b *faultyBackend) Set(key, value uint64, done func(kvstore.Result)) {
	if b.fault == "lost" && faulty(key) {
		done(kvstore.Result{Found: true})
		return
	}
	b.Backend.Set(key, value, done)
}

func (b *faultyBackend) SetBatch(pairs []blinktree.KV, each func(int, kvstore.Result)) {
	var kept []blinktree.KV
	var at []int
	for i, kv := range pairs {
		if b.fault == "lost" && faulty(kv.Key) {
			each(i, kvstore.Result{Found: true})
			continue
		}
		kept = append(kept, kv)
		at = append(at, i)
	}
	b.Backend.SetBatch(kept, func(i int, r kvstore.Result) { each(at[i], r) })
}

// TestRunRejectsFaults: each injected fault fails the run.
func TestRunRejectsFaults(t *testing.T) {
	for _, c := range []struct{ fault, workload string }{
		{"wrong", "read-hot"},
		{"missing", "read-hot"},
		{"err", "read-hot"},
		{"wrong", "mget-large"},
		{"missing", "mget-large"},
		{"lost", "update-durable"},
		{"lost", "read-paced"},
	} {
		t.Run(c.fault+"/"+c.workload, func(t *testing.T) {
			wrap := func(b kvstore.Backend) kvstore.Backend { return &faultyBackend{Backend: b, fault: c.fault} }
			res, err := run(small(t, c.workload), 1, false, options{seed: 4, workDir: t.TempDir(), wrap: wrap})
			if err != nil {
				t.Fatal(err)
			}
			if res.failed == 0 {
				t.Fatalf("fault %q passed the run:\n%v", c.fault, res.lines)
			}
			if out, _ := res.json(); jsonCorrect(out) {
				t.Errorf("result %s claims correct", out)
			}
			if c.workload == "update-durable" && !strings.Contains(strings.Join(res.lines, "\n"), "after reopen") {
				t.Errorf("the check after reopening missed the lost writes:\n%v", res.lines)
			}
		})
	}
}

// stallBackend holds back the replies of every call made inside a window
// until the window ends: a server stall.
type stallBackend struct {
	kvstore.Backend
	from, until atomic.Int64 // UnixNano
}

func (b *stallBackend) hold(fire func()) {
	now := time.Now().UnixNano()
	if now < b.from.Load() || now >= b.until.Load() {
		fire()
		return
	}
	time.AfterFunc(time.Duration(b.until.Load()-now), fire)
}

func (b *stallBackend) GetBatch(keys []uint64, each func(int, kvstore.Result)) {
	b.Backend.GetBatch(keys, func(i int, r kvstore.Result) { b.hold(func() { each(i, r) }) })
}

func (b *stallBackend) SetBatch(pairs []blinktree.KV, each func(int, kvstore.Result)) {
	b.Backend.SetBatch(pairs, func(i int, r kvstore.Result) { b.hold(func() { each(i, r) }) })
}

// TestOpenLoopStallRaisesLatency: a 60 ms server stall must show in the
// latencies of every request due during it — the open loop keeps sending
// on schedule and times each request from its due time — instead of in
// one slow request, as a generator that waits for replies would report.
func TestOpenLoopStallRaisesLatency(t *testing.T) {
	sp := small(t, "read-paced")
	sp.rate = 2000 // one request per millisecond per connection
	stall := &stallBackend{}
	opt := options{seed: 5, workDir: t.TempDir(), wrap: func(b kvstore.Backend) kvstore.Backend {
		stall.Backend = b
		return stall
	}}
	sys, err := startSystem(&sp, newZipf(uint64(sp.records), 0.99), time.Now(), opt)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.stop()
	const stallFor = 60 * time.Millisecond
	from := time.Now().Add(100 * time.Millisecond)
	stall.from.Store(from.UnixNano())
	stall.until.Store(from.Add(stallFor).UnixNano())
	r := sys.runPhase(phasePlan{duration: 400 * time.Millisecond}, 0)
	if r.failed != 0 {
		t.Fatalf("%d failed: %v", r.failed, r.errs)
	}
	var slow int
	var worst int64
	for _, d := range []dist{r.reads, r.writes} {
		for _, v := range d {
			if v >= int64(20*time.Millisecond) {
				slow++
			}
			worst = max(worst, v)
		}
	}
	// Requests due in the stall's first 40 ms wait at least 20 ms: about
	// 40 per connection.
	if slow < 60 {
		t.Errorf("%d requests took 20 ms or more, want at least 60", slow)
	}
	if worst < int64(stallFor*9/10) {
		t.Errorf("slowest request %v, want about %v", time.Duration(worst), stallFor)
	}
	if late := r.late.quantile(0.99); late > int64(10*time.Millisecond) {
		t.Errorf("sends ran %v late at p99: the sender waited on replies", time.Duration(late))
	}
}
