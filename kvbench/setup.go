package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mxtasking/internal/blinktree"
	"mxtasking/internal/kvstore"
	"mxtasking/internal/mxtask"
	"mxtasking/internal/wal"
)

// system is one set-up of the program under test: an mxtask runtime, a
// store, the TCP server on loopback, and the benchmark's connections.
type system struct {
	sp      *spec
	rt      *mxtask.Runtime
	store   *kvstore.Store
	srv     *kvstore.Server
	walDir  string
	clients []*client
	checks  []*checker

	setup        time.Duration // start → ready
	load, warmup time.Duration // the set-up's two largest parts
	heapPerRec   float64       // live heap the load added, per record
	warmupFailed uint64
	warmupErrs   []string
}

// options carries what a run varies besides the workload.
type options struct {
	seed    uint64
	workDir string // parent of the WAL directory
	// wrap, when set, wraps the Backend the server drives (tracing, and
	// fault injection in tests).
	wrap func(kvstore.Backend) kvstore.Backend
}

// startSystem builds the system and brings it to ready: the server is up,
// the records are loaded and the warm-up traffic has been answered.
func startSystem(sp *spec, z *zipf, base time.Time, opt options) (*system, error) {
	s := &system{sp: sp}
	gens := make([]*generator, conns)
	for i := range gens {
		gens[i] = newGenerator(sp, z, opt.seed, i, genGap(sp))
		s.checks = append(s.checks, newChecker(sp, i))
	}
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	t0 := time.Now()
	s.rt = mxtask.New(mxtask.Config{Workers: runtime.NumCPU(), PrefetchDistance: 2})
	s.rt.Start()
	if sp.durable {
		dir, err := os.MkdirTemp(opt.workDir, "wal-")
		if err != nil {
			s.stop()
			return nil, err
		}
		s.walDir = dir
		// The zero-value sync policy fsyncs once per group-commit batch.
		st, _, err := kvstore.Open(s.rt, kvstore.Durability{Dir: dir})
		if err != nil {
			s.stop()
			return nil, fmt.Errorf("open store: %w", err)
		}
		s.store = st
	} else {
		s.store = kvstore.New(s.rt)
	}
	var backend kvstore.Backend = s.store
	if opt.wrap != nil {
		backend = opt.wrap(backend)
	}
	srv, err := kvstore.NewServer(backend, "127.0.0.1:0")
	if err != nil {
		s.stop()
		return nil, err
	}
	s.srv = srv
	tLoad := time.Now()
	if err := loadRecords(s.store, sp.records); err != nil {
		s.stop()
		return nil, err
	}
	loaded := time.Now()
	s.load = loaded.Sub(tLoad)
	// The heap is measured right after the load, outside the set-up time.
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	s.heapPerRec = (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(sp.records)
	resumed := time.Now()
	ring := sp.depth
	if sp.rate > 0 {
		ring = openRing
	}
	for i := 0; i < conns; i++ {
		nc, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			s.stop()
			return nil, err
		}
		s.clients = append(s.clients, newClient(sp, nc, gens[i], s.checks[i], base, ring))
	}
	tWarm := time.Now()
	s.eachClient(func(_ int, c *client) { c.runClosed(sp.depth, time.Now().Add(time.Minute), sp.warmupOps) })
	s.warmup = time.Since(tWarm)
	s.setup = loaded.Sub(t0) + time.Since(resumed)
	for _, c := range s.clients {
		s.warmupFailed += c.failed
		s.warmupErrs = append(s.warmupErrs, c.errs...)
	}
	return s, nil
}

// openRing is the open loop's in-flight ring per connection: 64k
// requests, over 3 s of a connection's schedule at 40k req/s in total, so
// only a longer stall makes the sender wait for room.
const openRing = 1 << 16

// genGap is how many requests apart the generator keeps two SETs of one
// record: the closed loop's depth, or for the open loop a schedule span
// (about 50 ms at 40k req/s in total) that only a longer stall could
// overlap.
func genGap(sp *spec) int {
	if sp.rate > 0 {
		return 1024
	}
	return sp.depth
}

// eachClient runs fn on every client concurrently and waits for all.
func (s *system) eachClient(fn func(int, *client)) {
	var wg sync.WaitGroup
	for i, c := range s.clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			fn(i, c)
		}(i, c)
	}
	wg.Wait()
}

// loadRecords inserts records 0..n-1 straight into the store, one batch
// at a time (more batches in flight only queue up and load slower).
func loadRecords(st *kvstore.Store, n int) error {
	const chunk = 4096
	var bad atomic.Int64
	for i := 0; i < n; i += chunk {
		pairs := make([]blinktree.KV, 0, chunk)
		for j := i; j < min(i+chunk, n); j++ {
			key := keyOf(uint64(j))
			pairs = append(pairs, blinktree.KV{Key: key, Value: valueOf(key, 0)})
		}
		var wg sync.WaitGroup
		wg.Add(len(pairs))
		st.SetBatch(pairs, func(_ int, r kvstore.Result) {
			if r.Err != nil || r.Found {
				bad.Add(1)
			}
			wg.Done()
		})
		wg.Wait()
	}
	if b := bad.Load(); b > 0 {
		return fmt.Errorf("load: %d of %d inserts failed or found the key present", b, n)
	}
	return nil
}

// closeClients closes the benchmark's connections.
func (s *system) closeClients() {
	for _, c := range s.clients {
		c.nc.Close()
	}
	s.clients = nil
}

// stop tears the system down and removes its WAL directory.
func (s *system) stop() error {
	s.closeClients()
	var errs []error
	if s.srv != nil {
		errs = append(errs, s.srv.Close())
	}
	if s.store != nil {
		errs = append(errs, s.store.Close())
	}
	if s.rt != nil {
		s.rt.Stop()
	}
	if s.walDir != "" {
		errs = append(errs, os.RemoveAll(s.walDir))
	}
	return errors.Join(errs...)
}

// recovery is the outcome of reopening a durable store.
type recovery struct {
	took     time.Duration
	replay   wal.ReplayStats
	checked  uint64
	lost     uint64
	lostErrs []string
}

// reopen shuts the server and store down, reopens the store from its
// WAL directory, and checks every record: a record this run wrote must
// hold its last acknowledged version, every other record its loaded one.
func (s *system) reopen() (recovery, error) {
	var rec recovery
	s.closeClients()
	err := s.srv.Close()
	s.srv = nil
	if cerr := s.store.Close(); err == nil {
		err = cerr
	}
	s.store = nil
	if err != nil {
		return rec, fmt.Errorf("close before reopen: %w", err)
	}
	t0 := time.Now()
	st, replay, err := kvstore.Open(s.rt, kvstore.Durability{Dir: s.walDir})
	rec.took, rec.replay = time.Since(t0), replay
	if err != nil {
		return rec, fmt.Errorf("reopen: %w", err)
	}
	s.store = st

	const chunk = 4096
	keys := make([]uint64, 0, chunk)
	got := make([]kvstore.Result, chunk)
	for i := 0; i < s.sp.records; i += chunk {
		keys = keys[:0]
		for j := i; j < min(i+chunk, s.sp.records); j++ {
			keys = append(keys, keyOf(uint64(j)))
		}
		var wg sync.WaitGroup
		wg.Add(len(keys))
		st.GetBatch(keys, func(k int, r kvstore.Result) {
			got[k] = r
			wg.Done()
		})
		wg.Wait()
		for k, key := range keys {
			idx := uint64(i + k)
			lo, hi := s.checks[idx%conns].expected(idx)
			rec.checked++
			ver, ok := versionOf(key, got[k].Value)
			if got[k].Found && ok && ver >= lo && ver <= hi {
				continue
			}
			rec.lost++
			if len(rec.lostErrs) < maxErrs {
				rec.lostErrs = append(rec.lostErrs, fmt.Sprintf("after reopen record %d (key %d): found=%v value %d, want version in [%d, %d]",
					idx, key, got[k].Found, got[k].Value, lo, hi))
			}
		}
	}
	return rec, nil
}
