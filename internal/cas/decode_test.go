package cas

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// The journal testdata/build.journal was written by real ch-image builds
// into an empty cache directory: the three seeded bases, an alpine image
// with a LABEL json.Marshal escapes, a centos image, and a two-stage
// debian/alpine build whose steps have a layer, a layer and an apt
// rewrite count, and no layer.

// writerPayloads are the payloads appendLocked writes for every record
// shape, with names json.Marshal escapes and names it writes raw.
func writerPayloads(t testing.TB) [][]byte {
	t.Helper()
	digest := Sum([]byte("layer"))
	cfg := json.RawMessage(`{"env":["A=1"],"labels":{"k":"v <&>"},"arch":"x86_64"}`)
	var out [][]byte
	for _, rec := range []record{
		{T: "step", Stp: &Step{Key: "k", Layer: digest, Modified: 2}},
		{T: "step", Stp: &Step{Key: "k", Layer: digest}},
		{T: "step", Stp: &Step{Key: "k", Modified: -1}},
		{T: "step", Stp: &Step{Key: "k"}},
		{T: "tag", Tag: &Tag{Name: "app:1", Layers: []string{digest, digest}, Config: cfg}},
		{T: "tag", Tag: &Tag{Name: "app:1", Layers: []string{digest}}},
		{T: "tag", Tag: &Tag{Name: "empty:1", Layers: []string{}}},
		{T: "tag", Tag: &Tag{Name: "nil:1"}},
		{T: "untag", Untag: "app:1"},
		{T: "tag", Tag: &Tag{Name: `esc<>&"\:1`, Layers: []string{digest}}},
		{T: "untag", Untag: "ünïcødé:1 ☃"},
		{T: "step", Stp: &Step{Key: "tab\there"}},
	} {
		p, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p)
	}
	return out
}

// journalPayloads returns the payloads of a journal file's lines.
func journalPayloads(t testing.TB, name string) [][]byte {
	t.Helper()
	data, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for _, line := range bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n")) {
		_, payload, ok := bytes.Cut(line, []byte(" "))
		if !ok {
			t.Fatalf("%s: malformed line %q", name, line)
		}
		out = append(out, payload)
	}
	return out
}

// lineFor renders payload as a journal line, checksum and all.
func lineFor(payload []byte) []byte {
	h := sha256.Sum256(payload)
	return append([]byte(hex.EncodeToString(h[:])+" "), payload...)
}

// FuzzDecodeLine holds the journal's direct decoder to json.Unmarshal:
// any payload it accepts json.Unmarshal accepts too, into an equal
// record, and a checksummed line decodes exactly when json.Unmarshal
// takes its payload.
func FuzzDecodeLine(f *testing.F) {
	for _, p := range writerPayloads(f) {
		f.Add(p)
	}
	for _, p := range journalPayloads(f, "testdata/build.journal") {
		f.Add(p)
	}
	for _, p := range []string{
		`{"t":"tag","tag":{"name":"a","layers":null}}`,
		`{"t":"step","step":{"key":"a","modified":1.5}}`,
		`{"t":"step","step":{"key":"a","modified":01}}`,
		`{"t":"step", "step":{"key":"a"}}`,
		`{"t":"tag","tag":{"name":"a","layers":[],"config":{"a":[1,-2.5e+3,true,null,{}]}}}`,
		`{"t":"tag","tag":{"name":"a","layers":[],"config":{"a":"\x"}}}`,
		`{"t":"untag","untag":"a"} `,
		"{\"t\":\"untag\",\"untag\":\"\x83\"}", // invalid UTF-8, which json.Unmarshal replaces
		`{"t":"chain","chain":{"key":"a"}}`,
	} {
		f.Add([]byte(p))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		var want record
		werr := json.Unmarshal(payload, &want)
		if fast, ok := decodeFast(payload); ok {
			if werr != nil {
				t.Fatalf("fast path accepted %q, json.Unmarshal rejects it: %v", payload, werr)
			}
			if !reflect.DeepEqual(fast, want) {
				t.Fatalf("fast path decoded %q as %#v, json.Unmarshal as %#v", payload, fast, want)
			}
		}
		got, ok := decodeLine(lineFor(payload))
		if ok != (werr == nil) {
			t.Fatalf("decodeLine(%q) ok=%v, json.Unmarshal err=%v", payload, ok, werr)
		}
		if ok && !reflect.DeepEqual(got, want) {
			t.Fatalf("decodeLine decoded %q as %#v, json.Unmarshal as %#v", payload, got, want)
		}
	})
}

// The writer's common shapes take the fast path — every line of a real
// build's journal among them — so the fallback is for damage and for
// other writers, not for the lines an open reads every time.
func TestDecodeFastPathTakesWriterShapes(t *testing.T) {
	payloads := journalPayloads(t, "testdata/build.journal")
	if len(payloads) == 0 {
		t.Fatal("empty journal fixture")
	}
	for _, p := range append(writerPayloads(t), payloads...) {
		var want record
		if err := json.Unmarshal(p, &want); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		fast, ok := decodeFast(p)
		outside := p // a config is taken whole, escapes and all
		if i := bytes.Index(p, []byte(`,"config":`)); i >= 0 {
			outside = p[:i]
		}
		switch {
		case bytes.Contains(outside, []byte(`\`)) || bytes.Contains(p, []byte(`"layers":null`)):
			// An escaped name or a nil layer list is json.Unmarshal's.
			if ok {
				t.Errorf("fast path took %s", p)
			}
		case !ok:
			t.Errorf("fast path refused %s", p)
		case !reflect.DeepEqual(fast, want):
			t.Errorf("fast path decoded %s as %#v, want %#v", p, fast, want)
		}
	}
}

// BenchmarkDecodeLine decodes every line of a real build's journal,
// checksum included: directly, and through json.Unmarshal as every line
// was decoded before the direct path.
func BenchmarkDecodeLine(b *testing.B) {
	var lines [][]byte
	for _, p := range journalPayloads(b, "testdata/build.journal") {
		lines = append(lines, lineFor(p))
	}
	b.Run("direct", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, l := range lines {
				if _, ok := decodeLine(l); !ok {
					b.Fatal("line refused")
				}
			}
		}
	})
	b.Run("unmarshal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, l := range lines {
				payload := l[2*sha256.Size+1:]
				h := sha256.Sum256(payload)
				var rec record
				if hex.EncodeToString(h[:]) != string(l[:2*sha256.Size]) || json.Unmarshal(payload, &rec) != nil {
					b.Fatal("line refused")
				}
			}
		}
	})
}
