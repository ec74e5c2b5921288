package main

import (
	"strings"
	"testing"
)

func TestCheckerReadOnly(t *testing.T) {
	sp := workloads[0] // read-hot
	c := newChecker(&sp, 0)
	key := keyOf(3)
	if err := c.checkGet(3, replyValue, valueOf(key, 0), 0); err != nil {
		t.Errorf("loaded value rejected: %v", err)
	}
	for name, tc := range map[string]struct {
		kind replyKind
		v    uint64
	}{
		"wrong value":           {replyValue, valueOf(key, 0) ^ 1},
		"another key's value":   {replyValue, valueOf(keyOf(4), 0)},
		"written on read-only":  {replyValue, valueOf(key, 1)},
		"missing key":           {replyNotFound, 0},
		"ERR reply":             {replyErr, 0},
		"unparseable reply":     {replyUnknown, 0},
		"reply of another kind": {replyStored, 0},
	} {
		if err := c.checkGet(3, tc.kind, tc.v, 0); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCheckerWrites(t *testing.T) {
	sp := workloads[1] // update-durable
	c := newChecker(&sp, 1)
	const idx = 7 // owned by connection 1
	key := keyOf(idx)
	c.sentSet(idx, 1)
	// While the SET is in flight a read may see either version.
	for _, ver := range []uint32{0, 1} {
		if err := c.checkGet(idx, replyValue, valueOf(key, ver), c.floor(idx)); err != nil {
			t.Errorf("in-flight read of version %d rejected: %v", ver, err)
		}
	}
	if err := c.ackSet(idx, 1, replyOverwritten); err != nil {
		t.Fatal(err)
	}
	// Lost acknowledged write: a read sent after the ack sees the old value.
	if err := c.checkGet(idx, replyValue, valueOf(key, 0), c.floor(idx)); err == nil {
		t.Error("read of a lost acknowledged write accepted")
	}
	if err := c.checkGet(idx, replyValue, valueOf(key, 2), c.floor(idx)); err == nil {
		t.Error("read of a version never sent accepted")
	}
	if lo, hi := c.expected(idx); lo != 1 || hi != 1 {
		t.Errorf("expected = [%d, %d], want [1, 1]", lo, hi)
	}
	// A SET must overwrite: every record was loaded.
	c.sentSet(idx, 2)
	if err := c.ackSet(idx, 2, replyStored); err == nil {
		t.Error("STORED reply to a SET of a loaded record accepted")
	}
	c.sentSet(idx, 3)
	if err := c.ackSet(idx, 3, replyErr); err == nil {
		t.Error("ERR reply to a SET accepted")
	}
	// Records of the other connection are checked by tag only.
	if err := c.checkGet(6, replyValue, valueOf(keyOf(6), 5), 0); err != nil {
		t.Errorf("other connection's record rejected: %v", err)
	}
	if err := c.checkGet(6, replyValue, valueOf(keyOf(5), 5), 0); err == nil {
		t.Error("other connection's record with a foreign tag accepted")
	}
}

// TestCheckerOverlappingSets: two SETs of one record outstanding together
// may apply in either order, so afterwards either version is correct.
func TestCheckerOverlappingSets(t *testing.T) {
	sp := workloads[1]
	c := newChecker(&sp, 0)
	const idx = 4
	c.sentSet(idx, 1)
	c.sentSet(idx, 2)
	c.ackSet(idx, 1, replyOverwritten)
	c.ackSet(idx, 2, replyOverwritten)
	if lo, hi := c.expected(idx); lo != 1 || hi != 2 {
		t.Errorf("expected = [%d, %d], want [1, 2]", lo, hi)
	}
	for _, ver := range []uint32{1, 2} {
		if err := c.checkGet(idx, replyValue, valueOf(keyOf(idx), ver), c.floor(idx)); err != nil {
			t.Errorf("version %d rejected: %v", ver, err)
		}
	}
}

func TestCheckerMGet(t *testing.T) {
	sp := workloads[2] // mget-large
	c := newChecker(&sp, 0)
	idxs := []uint64{1, 2, 3}
	vals := func(vs ...string) []byte { return []byte(" " + strings.Join(vs, " ")) }
	good := []string{itoa(valueOf(keyOf(1), 0)), itoa(valueOf(keyOf(2), 0)), itoa(valueOf(keyOf(3), 0))}
	if err := c.checkMGet(idxs, replyValues, vals(good...)); err != nil {
		t.Errorf("correct MGET rejected: %v", err)
	}
	for name, rest := range map[string][]byte{
		"wrong value":  vals(good[0], itoa(valueOf(keyOf(2), 0)+1), good[2]),
		"missing key":  vals(good[0], "-", good[2]),
		"too few":      vals(good[:2]...),
		"too many":     vals(append(good, good[0])...),
		"malformed":    vals(good[0], "x", good[2]),
		"empty values": nil,
	} {
		if err := c.checkMGet(idxs, replyValues, rest); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if err := c.checkMGet(idxs, replyErr, nil); err == nil {
		t.Error("ERR reply to MGET accepted")
	}
}
