package main

import (
	"strconv"
	"testing"
)

func TestParseReply(t *testing.T) {
	for _, c := range []struct {
		line string
		kind replyKind
		v    uint64
	}{
		{"VALUE 42", replyValue, 42},
		{"VALUE 18446744073709551615", replyValue, 1<<64 - 1},
		{"VALUE 18446744073709551616", replyUnknown, 0},
		{"VALUE x", replyUnknown, 0},
		{"VALUE ", replyUnknown, 0},
		{"NOT_FOUND", replyNotFound, 0},
		{"STORED", replyStored, 0},
		{"OVERWRITTEN\r", replyOverwritten, 0},
		{"ERR get failed", replyErr, 0},
		{"ERR overloaded retry-after=2", replyErr, 0},
		{"PONG", replyUnknown, 0},
	} {
		kind, v, _ := parseReply([]byte(c.line))
		if kind != c.kind || v != c.v {
			t.Errorf("parseReply(%q) = %s %d, want %s %d", c.line, kind, v, c.kind, c.v)
		}
	}
}

func TestValueIter(t *testing.T) {
	kind, _, rest := parseReply([]byte("VALUES 1 - 3"))
	if kind != replyValues {
		t.Fatalf("kind = %s", kind)
	}
	it := valueIter{b: rest}
	type entry struct {
		v         uint64
		found, ok bool
	}
	want := []entry{{1, true, true}, {0, false, true}, {3, true, true}, {0, false, false}}
	for i, w := range want {
		v, found, ok := it.next()
		if (entry{v, found, ok}) != w {
			t.Errorf("entry %d = %v %v %v, want %+v", i, v, found, ok, w)
		}
	}
}

func TestRequestEncoding(t *testing.T) {
	b := appendGet(nil, 7)
	b = appendSet(b, 8, 9)
	b = appendMGet(b, []uint64{0, 1})
	want := "GET 7\nSET 8 9\nMGET " + itoa(keyOf(0)) + " " + itoa(keyOf(1)) + "\n"
	if string(b) != want {
		t.Errorf("encoded %q, want %q", b, want)
	}
}

func itoa(v uint64) string { return strconv.FormatUint(v, 10) }

// TestCodecAllocs pins the generator's request path at zero allocations:
// encoding, parsing and checking a reply reuse their buffers.
func TestCodecAllocs(t *testing.T) {
	sp := workloads[0]
	chk := newChecker(&sp, 0)
	buf := make([]byte, 0, 256)
	reply := []byte("VALUE " + itoa(valueOf(keyOf(5), 0)))
	allocs := testing.AllocsPerRun(1000, func() {
		buf = appendGet(buf[:0], keyOf(5))
		kind, v, _ := parseReply(reply)
		if err := chk.checkGet(5, kind, v, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("request path allocates %.1f times", allocs)
	}
}
