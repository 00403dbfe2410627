package build

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/cas"
	"repro/internal/image"
)

// Concurrent lookups of one stock base that no store holds yet resolve it
// once: every lookup returns the one image the single fill built and put.
// Each fill makes a new Image and hands it to its own callers, so a
// second fill would show as a second pointer.
func TestStockBaseSingleFlight(t *testing.T) {
	w, s := fixtures(t)
	b := &builder{ctx: context.Background(), opt: Options{Store: s, World: w}}
	const n = 16
	var (
		start sync.WaitGroup
		done  sync.WaitGroup
		gate  = make(chan struct{})
		imgs  [n]*image.Image
		errs  [n]error
	)
	start.Add(n)
	done.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer done.Done()
			start.Done()
			<-gate
			imgs[i], errs[i] = b.lookup("alpine:3.19", "base")
		}(i)
	}
	start.Wait()
	close(gate)
	done.Wait()
	put, ok := s.GetContext(context.Background(), "alpine:3.19")
	if !ok {
		t.Fatal("the resolved base is not in the store")
	}
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("lookup %d: %v", i, errs[i])
		}
		if imgs[i] != put {
			t.Fatalf("lookup %d returned an image other than the one put: more than one fill", i)
		}
	}
	if len(put.Layers) != 1 || put.Layers[0].Digest != goldenBaseLayers["alpine:3.19"] {
		t.Fatal("the resolved alpine:3.19 is not the stock base")
	}
}

// A stock name never resolves from the cas: a tag an older binary wrote
// under alpine:3.19, with other layers, neither serves the FROM nor
// survives it. The build yields the golden chain, and the tag is
// rewritten to this binary's base.
func TestStockBaseIgnoresPersistedTag(t *testing.T) {
	ctx := context.Background()
	var text string
	for _, sh := range goldenShapes {
		if sh.name == "alpine" {
			text = sh.text
		}
	}
	d, _, err := cas.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	stale := []byte("a layer some older binary packed")
	if err := d.PutTag(ctx, "alpine:3.19", []cas.Layer{{Digest: image.Digest(stale), Data: stale}}, nil); err != nil {
		t.Fatal(err)
	}
	w, s := fixtures(t)
	s.SetBacking(d)
	res, err := BuildContext(ctx, text, Options{
		Tag: "stale:1", Force: ForceSeccomp, Store: s, World: w, Cache: NewPersistentCache(d),
		Context: map[string][]byte{"app.txt": []byte(strings.Repeat("golden app.txt context file\n", 36))},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := image.ChainDigest(res.Image.Layers), goldenChains["alpine-seccomp"]; got != want {
		t.Fatalf("chain %s, golden %s", got, want)
	}
	if tg, ok := d.Tag("alpine:3.19"); !ok || !reflect.DeepEqual(tg.Layers, []string{goldenBaseLayers["alpine:3.19"]}) {
		t.Fatalf("persisted alpine:3.19 = %v, %v; want the stock base's layer", tg.Layers, ok)
	}
}

// A build puts only the bases it names: after FROM debian:12, a fresh
// store holds debian:12 and the built tag, and no other stock base.
func TestBuildPutsOnlyNamedBase(t *testing.T) {
	w, s := fixtures(t)
	mustBuild(t, "FROM debian:12\nRUN echo hi > /hi\n", Options{Tag: "app:1", Force: ForceSeccomp, Store: s, World: w})
	if got, want := s.Tags(), []string{"app:1", "debian:12"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("tags %v, want %v", got, want)
	}
}
