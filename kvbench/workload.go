package main

import (
	"fmt"
	"math"
	"time"
)

// conns is the number of client connections every workload drives.
const conns = 2

// spec is one workload: its data set, its traffic and how it is paced.
type spec struct {
	name    string
	records int
	// readPct is the share of point operations that are GETs; the rest
	// are SETs. 100 means read-only.
	readPct int
	// mget, when positive, makes every request an MGET of that many
	// uniform-random keys.
	mget int
	// zipf draws keys from a Zipf(θ=0.99) distribution instead of
	// uniformly.
	zipf bool
	// depth is the closed loop's requests in flight per connection; the
	// warm-up uses it on every workload.
	depth int
	// rate, when positive, makes the timed phase an open loop sending
	// rate requests per second in total.
	rate float64
	// durable opens the store with a write-ahead log in a fresh directory
	// and reopens it at the end to check what it recovered.
	durable bool
	// opsPerSecond, when positive, fixes the timed phase at
	// opsPerSecond × seconds requests instead of running for seconds, so
	// every run writes the same log for recovery to replay.
	opsPerSecond int
	// warmupOps is the closed-loop requests per connection that set-up
	// sends through the server before it counts as ready.
	warmupOps int
}

func (s *spec) readOnly() bool { return s.mget > 0 || s.readPct >= 100 }

// keysPerRequest is the number of key operations one request carries.
func (s *spec) keysPerRequest() int {
	if s.mget > 0 {
		return s.mget
	}
	return 1
}

// workloads are the benchmark's traffic mixes; the package doc and
// BENCHMARK.json give the reason for each.
var workloads = []spec{
	{
		name:      "read-hot",
		records:   200_000,
		readPct:   100,
		zipf:      true,
		depth:     16,
		warmupOps: 20_000,
	},
	{
		name:         "update-durable",
		records:      200_000,
		readPct:      50,
		zipf:         true,
		depth:        16,
		durable:      true,
		opsPerSecond: 90_000,
		warmupOps:    5_000,
	},
	{
		name:      "mget-large",
		records:   4_000_000,
		mget:      64,
		depth:     4,
		warmupOps: 500,
	},
	{
		name:      "read-paced",
		records:   200_000,
		readPct:   95,
		zipf:      true,
		depth:     16,
		rate:      40_000,
		warmupOps: 10_000,
	},
}

func findSpec(name string) (spec, error) {
	for _, s := range workloads {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// phasePlan says how long one timed phase runs: until the deadline for a
// time-based workload, or for a fixed number of requests per connection.
type phasePlan struct {
	duration time.Duration
	opsEach  int // 0 = time-based
}

// plan returns the phase each of the run's setupRuns set-ups is measured
// for: together they last seconds, or send opsPerSecond × seconds
// requests.
func (s *spec) plan(seconds int) phasePlan {
	p := phasePlan{duration: time.Duration(seconds) * time.Second / setupRuns}
	if s.opsPerSecond > 0 {
		p.opsEach = s.opsPerSecond * seconds / conns / setupRuns
	}
	return p
}

// Keys and values. Record i's key is a bijective mix of i, so hot Zipf
// ranks scatter across the tree's leaves. Every value carries a 40-bit
// tag derived from its key, so any read of any key can be checked, and a
// 23-bit version in bits 40–62: version 0 is the loaded value and each
// SET writes the next version of its key. Bit 63 stays clear.
const (
	tagBits = 40
	tagMask = 1<<tagBits - 1
	maxVer  = 1<<23 - 1
)

func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func keyOf(idx uint64) uint64 { return mix64(idx) }

func tagOf(key uint64) uint64 { return mix64(key^0x9e3779b97f4a7c15) & tagMask }

func valueOf(key uint64, ver uint32) uint64 { return uint64(ver)<<tagBits | tagOf(key) }

// versionOf returns the version a value carries, or ok=false when its tag
// does not belong to key.
func versionOf(key, value uint64) (ver uint32, ok bool) {
	if value&tagMask != tagOf(key) || value>>63 != 0 {
		return 0, false
	}
	return uint32(value >> tagBits), true
}

// rng is splitmix64: small, fast and allocation-free.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream uint64) rng {
	return rng{s: mix64(seed*0x9e3779b97f4a7c15 + stream + 1)}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix64(r.s)
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// zipf draws ranks in [0, n) with P(rank i) ∝ 1/(i+1)^θ, by the method
// of Gray et al. ("Quickly generating billion-record synthetic databases")
// that YCSB's ZipfianGenerator uses.
type zipf struct {
	n                        uint64
	theta, alpha, zetan, eta float64
	halfPowTheta             float64
}

func newZipf(n uint64, theta float64) *zipf {
	zeta := func(m uint64) float64 {
		sum := 0.0
		for i := uint64(1); i <= m; i++ {
			sum += 1 / math.Pow(float64(i), theta)
		}
		return sum
	}
	z := &zipf{n: n, theta: theta, alpha: 1 / (1 - theta), zetan: zeta(n)}
	zeta2 := zeta(2)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta2/z.zetan)
	z.halfPowTheta = 1 + math.Pow(0.5, theta)
	return z
}

func (z *zipf) rank(u float64) uint64 {
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.halfPowTheta {
		return 1
	}
	r := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if r >= z.n {
		r = z.n - 1
	}
	return r
}

// op is one generated request.
type op struct {
	kind byte     // 'G' GET, 'S' SET, 'M' MGET
	idx  uint64   // record index (GET, SET)
	ver  uint32   // version written (SET)
	mget []uint64 // record indices (MGET); owned by the caller's slot
}

// generator produces one connection's request stream from the seed. A
// connection writes only records whose index ≡ conn (mod conns), so the
// last acknowledged value of every record is known to exactly one
// connection. A SET never targets a record the same connection wrote in
// its previous gap requests: with at most gap requests in flight, no two
// SETs of one record are ever outstanding together, so their order — and
// the value recovery must find — is fixed.
type generator struct {
	sp      *spec
	conn    int
	r       rng
	z       *zipf
	gap     uint64
	seq     uint64
	lastSet []uint64 // per owned record: 1 + seq of its last SET
	lastVer []uint32 // per owned record: version its last SET wrote
}

func newGenerator(sp *spec, z *zipf, seed uint64, conn int, gap int) *generator {
	g := &generator{sp: sp, conn: conn, r: newRNG(seed, uint64(conn)), z: z, gap: uint64(gap)}
	if !sp.readOnly() {
		owned := (sp.records + conns - 1) / conns
		g.lastSet = make([]uint64, owned)
		g.lastVer = make([]uint32, owned)
	}
	return g
}

func (g *generator) draw() uint64 {
	if g.z != nil {
		return g.z.rank(g.r.float())
	}
	return g.r.next() % uint64(g.sp.records)
}

// next fills o with the connection's next request. o.mget must already
// have room for sp.mget indices on MGET workloads.
func (g *generator) next(o *op) {
	g.seq++
	if g.sp.mget > 0 {
		o.kind = 'M'
		o.mget = o.mget[:g.sp.mget]
		for i := range o.mget {
			o.mget[i] = g.draw()
		}
		return
	}
	if g.sp.readPct >= 100 || int(g.r.next()%100) < g.sp.readPct {
		o.kind, o.idx = 'G', g.draw()
		return
	}
	for {
		idx := g.draw()
		idx = idx - idx%conns + uint64(g.conn)
		if idx >= uint64(g.sp.records) {
			continue
		}
		own := idx / conns
		if last := g.lastSet[own]; last != 0 && g.seq-(last-1) < g.gap || g.lastVer[own] == maxVer {
			continue
		}
		g.lastSet[own] = g.seq + 1
		g.lastVer[own]++
		o.kind, o.idx, o.ver = 'S', idx, g.lastVer[own]
		return
	}
}
