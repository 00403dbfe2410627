package dockerfile

import (
	"strings"
	"testing"
)

// Multi-stage structure: stage splitting, AS names, --from resolution, DAG
// validation and reachability pruning.

const builderPattern = `ARG BASE=alpine:3.19
FROM centos:7 AS build
RUN yum install -y openssh
RUN echo artifact > /opt/out

FROM $BASE AS debug
RUN apk add sl

FROM $BASE
COPY --from=build /opt/out /app/out
CMD ["/app/out"]
`

func TestStageStructure(t *testing.T) {
	f := parse(t, builderPattern)
	if len(f.Stages) != 3 {
		t.Fatalf("stages: %d", len(f.Stages))
	}
	if len(f.GlobalArgs) != 1 || f.GlobalArgs[0].Cmd != "ARG" {
		t.Fatalf("global args: %+v", f.GlobalArgs)
	}
	b := f.Stages[0]
	if b.Name != "build" || b.Base != "centos:7" || b.Index != 0 || b.BaseStage != -1 {
		t.Fatalf("stage 0: %+v", b)
	}
	if len(b.Body) != 2 || b.Body[0].Cmd != "RUN" {
		t.Fatalf("stage 0 body: %+v", b.Body)
	}
	final := f.Stages[2]
	if final.Name != "" || final.Base != "$BASE" {
		t.Fatalf("final: %+v", final)
	}
	if len(final.Deps) != 1 || final.Deps[0] != 0 {
		t.Fatalf("final deps: %v", final.Deps)
	}
	copyIns := final.Body[0]
	if copyIns.From != "build" || copyIns.FromStage != 0 {
		t.Fatalf("copy --from: %+v", copyIns)
	}
}

func TestStageSingleStageCompat(t *testing.T) {
	// A single-stage file still exposes one Stage, and FROM ... AS is
	// accepted and stripped.
	f := parse(t, "FROM alpine:3.19 AS base\nRUN apk add sl\n")
	if len(f.Stages) != 1 {
		t.Fatalf("stages: %d", len(f.Stages))
	}
	if f.Stages[0].Base != "alpine:3.19" || f.Stages[0].Name != "base" {
		t.Fatalf("stage: %+v", f.Stages[0])
	}
}

func TestStageNameReuseRejected(t *testing.T) {
	_, err := Parse("FROM a AS dup\nFROM b AS dup\n")
	if err == nil {
		t.Fatal("duplicate stage name must fail")
	}
	pe, ok := err.(*ParseError)
	if !ok || pe.Line != 2 || !strings.Contains(pe.Reason, "already used") {
		t.Fatalf("error: %v", err)
	}
	// Names are case-insensitive, so reuse across cases is still reuse.
	if _, err := Parse("FROM a AS dup\nFROM b AS DUP\n"); err == nil {
		t.Fatal("case-insensitive duplicate must fail")
	}
}

func TestStageNameValidation(t *testing.T) {
	for _, bad := range []string{"1stage", "-x", "has space", "ü"} {
		if _, err := Parse("FROM a AS " + bad + "\n"); err == nil {
			t.Errorf("stage name %q must fail", bad)
		}
	}
	for _, good := range []string{"b", "Build2", "my-stage.v1_x"} {
		if _, err := Parse("FROM a AS " + good + "\n"); err != nil {
			t.Errorf("stage name %q: %v", good, err)
		}
	}
}

func TestCopyFromByIndex(t *testing.T) {
	f := parse(t, "FROM a\nRUN true\nFROM b\nCOPY --from=0 /x /y\n")
	ins := f.Stages[1].Body[0]
	if ins.From != "0" || ins.FromStage != 0 {
		t.Fatalf("from: %+v", ins)
	}
	if d := f.Stages[1].Deps; len(d) != 1 || d[0] != 0 {
		t.Fatalf("deps: %v", d)
	}
	// The flat instruction list carries the same resolution.
	var flat *Instruction
	for i := range f.Instructions {
		if f.Instructions[i].Cmd == "COPY" {
			flat = &f.Instructions[i]
		}
	}
	if flat == nil || flat.FromStage != 0 {
		t.Fatalf("flat copy: %+v", flat)
	}
}

func TestCopyFromIndexOutOfRange(t *testing.T) {
	_, err := Parse("FROM a\nFROM b\nCOPY --from=7 /x /y\n")
	if err == nil {
		t.Fatal("out-of-range index must fail")
	}
	if pe := err.(*ParseError); pe.Line != 3 || !strings.Contains(pe.Reason, "out of range") {
		t.Fatalf("error: %v", err)
	}
}

func TestCopyFromForwardAndSelfRejected(t *testing.T) {
	cases := []struct{ text, wantLine string }{
		// Forward by name.
		{"FROM a AS one\nCOPY --from=two /x /y\nFROM b AS two\n", "line 2"},
		// Self by name.
		{"FROM a AS me\nCOPY --from=me /x /y\n", "line 2"},
		// Self by index.
		{"FROM a\nFROM b\nCOPY --from=1 /x /y\n", "line 3"},
		// FROM naming a later stage.
		{"FROM later\nRUN true\nFROM b AS later\n", "line 1"},
		// FROM naming itself.
		{"FROM me AS me\n", "line 1"},
	}
	for _, c := range cases {
		_, err := Parse(c.text)
		if err == nil {
			t.Errorf("%q must fail", c.text)
			continue
		}
		if !strings.Contains(err.Error(), c.wantLine) {
			t.Errorf("%q: error %v, want %s", c.text, err, c.wantLine)
		}
	}
}

func TestCopyFromExternalImage(t *testing.T) {
	// An unknown --from name is an external image reference, resolved at
	// build time, not a parse error.
	f := parse(t, "FROM a\nCOPY --from=alpine:3.19 /etc/os-release /x\n")
	ins := f.Stages[0].Body[0]
	if ins.From != "alpine:3.19" || ins.FromStage != -1 {
		t.Fatalf("external from: %+v", ins)
	}
}

func TestCopyFromFlagErrors(t *testing.T) {
	if _, err := Parse("FROM a\nFROM b\nADD --from=0 /x /y\n"); err == nil {
		t.Fatal("ADD --from must fail")
	}
	if _, err := Parse("FROM a\nFROM b\nCOPY --from=0 --from=0 /x /y\n"); err == nil {
		t.Fatal("duplicate --from must fail")
	}
	if _, err := Parse("FROM a\nFROM b\nCOPY --from= /x /y\n"); err == nil {
		t.Fatal("empty --from must fail")
	}
	if _, err := Parse("FROM --platform=linux/amd64 a\n"); err == nil {
		t.Fatal("FROM flags must fail")
	}
}

// --from extraction only looks at COPY/ADD flags: shell text in other
// instructions that happens to contain "--from=" is left alone, while a
// --from misplaced after COPY's sources is an error rather than a silent
// context copy.
func TestFromTokenInShellTextIgnored(t *testing.T) {
	f := parse(t, "FROM alpine:3.19\nRUN mytool --from=source --to=dest\n")
	run := f.Stages[0].Body[0]
	if run.From != "" || run.FromStage != -1 {
		t.Fatalf("RUN misparsed as --from: %+v", run)
	}
	_, err := Parse("FROM a\nFROM b\nCOPY /x --from=0 /dst\n")
	if err == nil || !strings.Contains(err.Error(), "must precede") {
		t.Fatalf("misplaced --from: %v", err)
	}
	// ADD with non-from leading flags is fine; only --from is rejected.
	if _, err := Parse("FROM a\nADD --chown=x /src /dst\n"); err != nil {
		t.Fatalf("ADD with leading flag: %v", err)
	}
}

func TestReachablePrunesUnreferencedStages(t *testing.T) {
	f := parse(t, builderPattern)
	reach := f.ReachableFrom(len(f.Stages) - 1)
	want := []bool{true, false, true} // "debug" is never referenced
	for i := range want {
		if reach[i] != want[i] {
			t.Fatalf("reachable: %v, want %v", reach, want)
		}
	}
}

func TestReachableChain(t *testing.T) {
	// A FROM chain: final → mid → base, all reachable.
	f := parse(t, "FROM a AS base\nFROM base AS mid\nRUN true\nFROM mid\nRUN true\n")
	for i, ok := range f.ReachableFrom(len(f.Stages) - 1) {
		if !ok {
			t.Fatalf("stage %d unreachable", i)
		}
	}
	if f.Stages[1].BaseStage != 0 || f.Stages[2].BaseStage != 1 {
		t.Fatalf("base stages: %+v", f.Stages)
	}
}

func TestStageIndexLookup(t *testing.T) {
	f := parse(t, builderPattern)
	if i, ok := f.StageIndex("build"); !ok || i != 0 {
		t.Fatalf("by name: %d %v", i, ok)
	}
	if i, ok := f.StageIndex("BUILD"); !ok || i != 0 {
		t.Fatalf("case-insensitive: %d %v", i, ok)
	}
	if i, ok := f.StageIndex("2"); !ok || i != 2 {
		t.Fatalf("by index: %d %v", i, ok)
	}
	if _, ok := f.StageIndex("nope"); ok {
		t.Fatal("unknown name resolved")
	}
	if _, ok := f.StageIndex("9"); ok {
		t.Fatal("out-of-range index resolved")
	}
}

func TestReachableFrom(t *testing.T) {
	f := parse(t, builderPattern)
	// From the final stage: build + final, debug unreachable (Reachable()
	// delegates here).
	if got := f.ReachableFrom(2); !got[0] || got[1] || !got[2] {
		t.Fatalf("from final: %v", got)
	}
	// From the build stage: only itself.
	if got := f.ReachableFrom(0); !got[0] || got[1] || got[2] {
		t.Fatalf("from build: %v", got)
	}
	// Out-of-range roots mark nothing.
	for _, root := range []int{-1, 3} {
		for i, ok := range f.ReachableFrom(root) {
			if ok {
				t.Fatalf("root %d marks stage %d", root, i)
			}
		}
	}
}
