package main

import "fmt"

// checker verifies one connection's replies. Every value must carry its
// key's tag (valueOf). On read-only workloads every value must be the
// loaded one. For the records the connection writes it also knows which
// versions a read may return: at least the version acknowledged before the
// read was sent (its floor) and at most the newest version sent before
// the reply arrived. A SET must report OVERWRITTEN, since every record
// was loaded. After a durable store reopens, expected gives the version
// each record must hold.
type checker struct {
	sp   *spec
	conn int
	// Per owned record (index / conns): lo is the oldest version a read
	// sent now may return, hi the newest version sent, and inflight the
	// SETs outstanding. groupLo is the first version of the current run of
	// overlapping SETs: their order is not fixed, so once the last of them
	// is acknowledged the record holds one of them, at least groupLo. The
	// generator keeps SETs of one record from overlapping, which makes lo
	// exact; the check stays sound if they do.
	lo, hi, groupLo []uint32
	inflight        []uint32
}

func newChecker(sp *spec, conn int) *checker {
	c := &checker{sp: sp, conn: conn}
	if !sp.readOnly() {
		owned := (sp.records + conns - 1) / conns
		c.lo = make([]uint32, owned)
		c.hi = make([]uint32, owned)
		c.groupLo = make([]uint32, owned)
		c.inflight = make([]uint32, owned)
	}
	return c
}

func (c *checker) owned(idx uint64) bool {
	return c.lo != nil && int(idx%conns) == c.conn
}

// floor is the oldest version a read of idx sent now may return.
func (c *checker) floor(idx uint64) uint32 {
	if !c.owned(idx) {
		return 0
	}
	return c.lo[idx/conns]
}

// sentSet records that a SET writing version ver of idx was sent.
func (c *checker) sentSet(idx uint64, ver uint32) {
	own := idx / conns
	if c.inflight[own] == 0 {
		c.groupLo[own] = ver
	}
	c.inflight[own]++
	c.hi[own] = ver
}

// ackSet checks a SET's reply and records its acknowledgement.
func (c *checker) ackSet(idx uint64, ver uint32, kind replyKind) error {
	own := idx / conns
	c.inflight[own]--
	if c.inflight[own] == 0 {
		c.lo[own] = c.groupLo[own]
	}
	if kind != replyOverwritten {
		return fmt.Errorf("SET record %d version %d: reply %s, want OVERWRITTEN", idx, ver, kind)
	}
	return nil
}

// checkGet checks a GET's reply; floor is what floor(idx) returned when
// the GET was sent.
func (c *checker) checkGet(idx uint64, kind replyKind, v uint64, floor uint32) error {
	key := keyOf(idx)
	switch kind {
	case replyValue:
	case replyNotFound:
		return fmt.Errorf("GET record %d (key %d): missing", idx, key)
	default:
		return fmt.Errorf("GET record %d (key %d): reply %s", idx, key, kind)
	}
	ver, ok := versionOf(key, v)
	switch {
	case !ok:
		return fmt.Errorf("GET record %d (key %d): value %d belongs to another key", idx, key, v)
	case c.sp.readOnly() && ver != 0:
		return fmt.Errorf("GET record %d (key %d): version %d on a read-only workload", idx, key, ver)
	case c.owned(idx) && (ver < floor || ver > c.hi[idx/conns]):
		return fmt.Errorf("GET record %d (key %d): version %d outside [%d, %d]", idx, key, ver, floor, c.hi[idx/conns])
	}
	return nil
}

// checkMGet checks an MGET's reply against the loaded values.
func (c *checker) checkMGet(idxs []uint64, kind replyKind, rest []byte) error {
	if kind != replyValues {
		return fmt.Errorf("MGET of %d keys: reply %s", len(idxs), kind)
	}
	it := valueIter{b: rest}
	for i, idx := range idxs {
		v, found, ok := it.next()
		key := keyOf(idx)
		switch {
		case !ok:
			return fmt.Errorf("MGET: entry %d of %d keys missing or malformed", i, len(idxs))
		case !found:
			return fmt.Errorf("MGET record %d (key %d): missing", idx, key)
		case v != valueOf(key, 0):
			return fmt.Errorf("MGET record %d (key %d): value %d, want %d", idx, key, v, valueOf(key, 0))
		}
	}
	if len(it.b) != 0 {
		return fmt.Errorf("MGET: more values than %d keys", len(idxs))
	}
	return nil
}

// expected returns the versions idx may hold once every request has been
// answered: exactly lo when lo == hi.
func (c *checker) expected(idx uint64) (lo, hi uint32) {
	if !c.owned(idx) {
		return 0, 0
	}
	return c.lo[idx/conns], c.hi[idx/conns]
}
