package cas

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"unicode/utf8"
)

// Journal line decoding. Every line is "<sha256-hex-of-payload> <payload>"
// and the payload is a record as appendLocked's json.Marshal writes it.
// Those payloads come in three exact shapes, so decodePayload reads them
// directly, without encoding/json's reflection and validation passes:
//
//	{"t":"step","step":{"key":S[,"layer":S][,"modified":N]}}
//	{"t":"tag","tag":{"name":S,"layers":[S,...][,"config":{...}]}}
//	{"t":"untag","untag":S}
//
// where S is a string in valid UTF-8 with no escape and N an integer, and
// the config any compact JSON object, kept byte for byte. Anything else —
// an escaped character, another field order, whitespace, "layers":null, a
// field this binary does not know — goes to json.Unmarshal, so the
// fast path only ever accepts what json.Unmarshal accepts and yields the
// record it yields (FuzzDecodeLine holds it to that). The format on disk
// does not change.

// decodeLine parses and checksum-verifies one journal line.
func decodeLine(line []byte) (record, bool) {
	sum, payload, ok := bytes.Cut(line, []byte(" "))
	if !ok || len(sum) != 2*sha256.Size {
		return record{}, false
	}
	h := sha256.Sum256(payload)
	var want [2 * sha256.Size]byte
	hex.Encode(want[:], h[:])
	if !bytes.Equal(want[:], sum) {
		return record{}, false
	}
	return decodePayload(payload)
}

// decodePayload decodes a checksum-verified payload: the writer's own
// shapes directly, anything else through json.Unmarshal.
func decodePayload(payload []byte) (record, bool) {
	if rec, ok := decodeFast(payload); ok {
		return rec, true
	}
	var rec record
	if json.Unmarshal(payload, &rec) != nil {
		return record{}, false
	}
	return rec, true
}

// decodeFast decodes payload when it has exactly one of the writer's
// shapes, and reports false, with no partial result, otherwise.
func decodeFast(payload []byte) (record, bool) {
	s := scanner{b: payload}
	var rec record
	ok := false
	switch {
	case s.lit(`{"t":"step","step":{"key":`):
		st := Step{}
		st.Key, ok = s.str()
		if ok && s.lit(`,"layer":`) {
			st.Layer, ok = s.str()
		}
		if ok && s.lit(`,"modified":`) {
			st.Modified, ok = s.int()
		}
		ok = ok && s.lit(`}}`)
		rec = record{T: "step", Stp: &st}
	case s.lit(`{"t":"tag","tag":{"name":`):
		tg := Tag{}
		tg.Name, ok = s.str()
		if ok = ok && s.lit(`,"layers":[`); ok {
			tg.Layers, ok = s.strings()
		}
		if ok && s.lit(`,"config":`) {
			tg.Config, ok = s.object()
		}
		ok = ok && s.lit(`}}`)
		rec = record{T: "tag", Tag: &tg}
	case s.lit(`{"t":"untag","untag":`):
		rec.T = "untag"
		rec.Untag, ok = s.str()
		ok = ok && s.lit(`}`)
	}
	if !ok || s.i != len(s.b) {
		return record{}, false
	}
	return rec, true
}

// scanner reads the compact JSON the journal writer emits. Each method
// consumes what it matched and reports false on anything it does not
// handle; the caller then abandons the scan for json.Unmarshal.
type scanner struct {
	b []byte
	i int
}

// lit consumes l if the input continues with it.
func (s *scanner) lit(l string) bool {
	if len(s.b)-s.i < len(l) || string(s.b[s.i:s.i+len(l)]) != l {
		return false
	}
	s.i += len(l)
	return true
}

// str reads a string that needs no unescaping and holds valid UTF-8, so
// its bytes are the value json.Unmarshal would produce.
func (s *scanner) str() (string, bool) {
	if !s.lit(`"`) {
		return "", false
	}
	start, ascii := s.i, true
	for ; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			v := s.b[start:s.i]
			s.i++
			return string(v), ascii || utf8.Valid(v)
		case c == '\\' || c < 0x20:
			return "", false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return "", false
}

// strings reads the rest of a string array whose "[" was consumed. An
// empty array is an empty, non-nil slice, as json.Unmarshal makes it.
func (s *scanner) strings() ([]string, bool) {
	out := []string{}
	if s.lit(`]`) {
		return out, true
	}
	for {
		v, ok := s.str()
		if !ok {
			return nil, false
		}
		out = append(out, v)
		if s.lit(`]`) {
			return out, true
		}
		if !s.lit(`,`) {
			return nil, false
		}
	}
}

// int reads an integer in JSON's grammar (no fraction or exponent; those
// leave the caller at a byte it does not expect) small enough for any int.
func (s *scanner) int() (int, bool) {
	neg := s.lit(`-`)
	start, n := s.i, 0
	for ; s.i < len(s.b) && s.b[s.i] >= '0' && s.b[s.i] <= '9'; s.i++ {
		n = 10*n + int(s.b[s.i]-'0')
	}
	digits := s.i - start
	if digits == 0 || digits > 9 || (digits > 1 && s.b[start] == '0') {
		return 0, false
	}
	if neg {
		n = -n
	}
	return n, true
}

// maxDepth bounds the nesting object accepts; deeper values are left to
// json.Unmarshal.
const maxDepth = 32

// object reads one compact JSON object and returns a copy of its bytes,
// as json.RawMessage's UnmarshalJSON keeps them.
func (s *scanner) object() (json.RawMessage, bool) {
	start := s.i
	if s.i >= len(s.b) || s.b[s.i] != '{' || !s.value(0) {
		return nil, false
	}
	return append(json.RawMessage(nil), s.b[start:s.i]...), true
}

// value consumes one compact JSON value (no insignificant whitespace),
// checking it the way encoding/json's scanner does.
func (s *scanner) value(depth int) bool {
	if depth > maxDepth || s.i >= len(s.b) {
		return false
	}
	switch s.b[s.i] {
	case '{':
		s.i++
		if s.lit(`}`) {
			return true
		}
		for {
			if !s.skipString() || !s.lit(`:`) || !s.value(depth+1) {
				return false
			}
			if s.lit(`}`) {
				return true
			}
			if !s.lit(`,`) {
				return false
			}
		}
	case '[':
		s.i++
		if s.lit(`]`) {
			return true
		}
		for {
			if !s.value(depth + 1) {
				return false
			}
			if s.lit(`]`) {
				return true
			}
			if !s.lit(`,`) {
				return false
			}
		}
	case '"':
		return s.skipString()
	case 't':
		return s.lit(`true`)
	case 'f':
		return s.lit(`false`)
	case 'n':
		return s.lit(`null`)
	}
	return s.skipNumber()
}

// skipString consumes one string, escapes included. Like encoding/json's
// scanner it rejects control bytes and malformed escapes and passes any
// other byte through.
func (s *scanner) skipString() bool {
	if !s.lit(`"`) {
		return false
	}
	for s.i < len(s.b) {
		c := s.b[s.i]
		s.i++
		switch {
		case c == '"':
			return true
		case c < 0x20:
			return false
		case c == '\\':
			if s.i >= len(s.b) {
				return false
			}
			e := s.b[s.i]
			s.i++
			switch e {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for k := 0; k < 4; k++ {
					if s.i >= len(s.b) || !isHex(s.b[s.i]) {
						return false
					}
					s.i++
				}
			default:
				return false
			}
		}
	}
	return false
}

// skipNumber consumes one number in JSON's grammar:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (s *scanner) skipNumber() bool {
	s.lit(`-`)
	switch {
	case s.lit(`0`):
	case s.i < len(s.b) && s.b[s.i] >= '1' && s.b[s.i] <= '9':
		s.digits()
	default:
		return false
	}
	if s.lit(`.`) && s.digits() == 0 {
		return false
	}
	if s.lit(`e`) || s.lit(`E`) {
		if !s.lit(`+`) {
			s.lit(`-`)
		}
		if s.digits() == 0 {
			return false
		}
	}
	return true
}

// digits consumes a run of decimal digits and returns its length.
func (s *scanner) digits() int {
	start := s.i
	for s.i < len(s.b) && s.b[s.i] >= '0' && s.b[s.i] <= '9' {
		s.i++
	}
	return s.i - start
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}
