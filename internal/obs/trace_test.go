package obs

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// TestTraceTree builds a small tree through the context API and checks
// the snapshot mirrors it: names, nesting, attrs, non-negative
// monotone offsets.
func TestTraceTree(t *testing.T) {
	ctx, root := NewTrace(context.Background(), "build demo:1")
	sctx, stage := StartSpan(ctx, "stage 0 (alpine)")
	_, ins := StartSpan(sctx, "RUN apk add sl")
	ins.Annotate("cache", "miss")
	ins.AnnotateInt("bytes", 1234)
	ins.End()
	stage.End()
	root.End()

	d := root.Snapshot()
	if d.Name != "build demo:1" || len(d.Children) != 1 {
		t.Fatalf("bad root: %+v", d)
	}
	st := d.Children[0]
	if st.Name != "stage 0 (alpine)" || len(st.Children) != 1 {
		t.Fatalf("bad stage: %+v", st)
	}
	in := st.Children[0]
	if in.Name != "RUN apk add sl" {
		t.Fatalf("bad instruction: %+v", in)
	}
	if len(in.Attrs) != 2 || in.Attrs[0] != (Attr{"cache", "miss"}) || in.Attrs[1] != (Attr{"bytes", "1234"}) {
		t.Fatalf("bad attrs: %+v", in.Attrs)
	}
	for _, s := range []SpanData{d, st, in} {
		if s.Running {
			t.Errorf("%s still running after End", s.Name)
		}
		if s.StartMs < 0 || s.DurationMs < 0 {
			t.Errorf("%s negative timing: %+v", s.Name, s)
		}
	}
	if st.StartMs < d.StartMs || in.StartMs < st.StartMs {
		t.Errorf("child starts before parent: root=%v stage=%v ins=%v", d.StartMs, st.StartMs, in.StartMs)
	}
}

// TestUntracedNoop: without NewTrace, StartSpan hands back the same
// context and a nil span whose methods all no-op — the zero-cost path
// every plain build takes.
func TestUntracedNoop(t *testing.T) {
	ctx := context.Background()
	ctx2, s := StartSpan(ctx, "ignored")
	if ctx2 != ctx {
		t.Error("untraced StartSpan returned a new context")
	}
	if s != nil {
		t.Fatalf("untraced StartSpan returned a span: %+v", s)
	}
	// All nil-safe:
	s.Annotate("k", "v")
	s.AnnotateInt("n", 1)
	s.End()
	if d := s.Snapshot(); d.Name != "" || len(d.Children) != 0 {
		t.Errorf("nil snapshot not zero: %+v", d)
	}
	if SpanOf(ctx) != nil {
		t.Error("SpanOf on untraced context not nil")
	}
}

// TestConcurrentChildren: parallel stages attach children to one
// parent concurrently (the stage scheduler does exactly this); under
// -race this is the tracer's data-race gate.
func TestConcurrentChildren(t *testing.T) {
	ctx, root := NewTrace(context.Background(), "build par")
	const n = 32
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sctx, s := StartSpan(ctx, "stage")
			_, c := StartSpan(sctx, "RUN x")
			c.Annotate("cache", "hit")
			c.End()
			s.End()
		}()
	}
	wg.Wait()
	root.End()
	d := root.Snapshot()
	if len(d.Children) != n {
		t.Fatalf("got %d children, want %d", len(d.Children), n)
	}
	for _, c := range d.Children {
		if len(c.Children) != 1 {
			t.Fatalf("stage with %d children, want 1", len(c.Children))
		}
	}
}

// TestSnapshotWire: SpanData marshals to the wire shape the daemon
// embeds (camelCase keys, attrs/children omitted when empty) and
// WriteTree renders every span on its own indented line.
func TestSnapshotWire(t *testing.T) {
	ctx, root := NewTrace(context.Background(), "build w:1")
	_, s := StartSpan(ctx, "FROM alpine:3.19")
	s.End()
	root.End()
	raw, err := json.Marshal(root.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"name":"build w:1"`, `"durationMs":`, `"children":[{"name":"FROM alpine:3.19"`} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("wire JSON missing %s: %s", want, raw)
		}
	}
	if strings.Contains(string(raw), `"attrs"`) {
		t.Errorf("empty attrs not omitted: %s", raw)
	}

	var b strings.Builder
	root.Snapshot().WriteTree(&b)
	lines := strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("tree: got %d lines, want 2:\n%s", len(lines), b.String())
	}
	if !strings.HasPrefix(lines[0], "build w:1") || !strings.HasPrefix(lines[1], "  FROM alpine:3.19") {
		t.Errorf("bad tree:\n%s", b.String())
	}
	if !strings.Contains(lines[1], "ms") {
		t.Errorf("no duration on tree line: %q", lines[1])
	}
}

// TestRunningSnapshot: a snapshot taken mid-build marks unfinished
// spans Running with their elapsed-so-far duration — GET on a live
// operation sees a truthful partial timeline.
func TestRunningSnapshot(t *testing.T) {
	ctx, root := NewTrace(context.Background(), "build live")
	_, s := StartSpan(ctx, "RUN sleep")
	d := root.Snapshot()
	if !d.Running || !d.Children[0].Running {
		t.Errorf("live spans not marked running: %+v", d)
	}
	s.End()
	root.End()
	if d := root.Snapshot(); d.Running || d.Children[0].Running {
		t.Errorf("ended spans still running: %+v", d)
	}
}
