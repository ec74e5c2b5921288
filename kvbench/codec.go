package main

import "strconv"

// The generator's own codec for the server's line protocol: requests are
// appended to a reused buffer and replies are parsed in place from the
// reader's buffer, so a request round trip allocates nothing on the
// client side and client-library changes cannot move the server's
// numbers.

func appendGet(b []byte, key uint64) []byte {
	b = append(b, "GET "...)
	b = strconv.AppendUint(b, key, 10)
	return append(b, '\n')
}

func appendSet(b []byte, key, value uint64) []byte {
	b = append(b, "SET "...)
	b = strconv.AppendUint(b, key, 10)
	b = append(b, ' ')
	b = strconv.AppendUint(b, value, 10)
	return append(b, '\n')
}

// appendMGet appends an MGET of the keys of record indices idxs.
func appendMGet(b []byte, idxs []uint64) []byte {
	b = append(b, "MGET"...)
	for _, idx := range idxs {
		b = append(b, ' ')
		b = strconv.AppendUint(b, keyOf(idx), 10)
	}
	return append(b, '\n')
}

type replyKind uint8

const (
	replyUnknown     replyKind = iota
	replyValue                 // VALUE <v>
	replyNotFound              // NOT_FOUND
	replyStored                // STORED
	replyOverwritten           // OVERWRITTEN
	replyValues                // VALUES <v|-> ...
	replyErr                   // ERR ...
)

func (k replyKind) String() string {
	return [...]string{"unknown", "VALUE", "NOT_FOUND", "STORED", "OVERWRITTEN", "VALUES", "ERR"}[k]
}

// parseReply classifies one reply line (without its newline). For VALUE
// it returns the value; for VALUES, rest holds the value list.
func parseReply(line []byte) (kind replyKind, v uint64, rest []byte) {
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	switch {
	case hasPrefix(line, "VALUE "):
		v, ok := parseUint(line[len("VALUE "):])
		if !ok {
			return replyUnknown, 0, nil
		}
		return replyValue, v, nil
	case hasPrefix(line, "VALUES"):
		return replyValues, 0, line[len("VALUES"):]
	case string(line) == "NOT_FOUND":
		return replyNotFound, 0, nil
	case string(line) == "STORED":
		return replyStored, 0, nil
	case string(line) == "OVERWRITTEN":
		return replyOverwritten, 0, nil
	case hasPrefix(line, "ERR"):
		return replyErr, 0, nil
	}
	return replyUnknown, 0, nil
}

func hasPrefix(b []byte, p string) bool { return len(b) >= len(p) && string(b[:len(p)]) == p }

// parseUint parses a non-empty decimal uint64.
func parseUint(b []byte) (uint64, bool) {
	if len(b) == 0 || len(b) > 20 {
		return 0, false
	}
	var v uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		d := uint64(c - '0')
		if v > (1<<64-1-d)/10 {
			return 0, false
		}
		v = v*10 + d
	}
	return v, true
}

// valueIter walks the space-separated list of a VALUES reply.
type valueIter struct{ b []byte }

// next returns the next entry: found=false for a "-" (missing key),
// ok=false when the list is exhausted or malformed.
func (it *valueIter) next() (v uint64, found, ok bool) {
	if len(it.b) == 0 || it.b[0] != ' ' {
		return 0, false, false
	}
	b := it.b[1:]
	end := 0
	for end < len(b) && b[end] != ' ' {
		end++
	}
	field := b[:end]
	it.b = b[end:]
	if string(field) == "-" {
		return 0, false, true
	}
	v, ok = parseUint(field)
	return v, ok, ok
}
