package image_test

import (
	"context"
	"testing"

	"repro/internal/build"
	"repro/internal/cas"
	"repro/internal/image"
	"repro/internal/pkgmgr"
)

// A warm invocation from disk builds no base tree. The cold one builds
// the tree of each base at its first miss; the warm one checks out every
// step, its WORKDIR included, and its COPY --from a fully cached stage
// reads nothing, so neither base is unpacked, and no chain is filled.
func TestWarmBuildFromDiskBuildsNoBaseTree(t *testing.T) {
	const text = "FROM alpine:3.19 AS stage\nRUN echo artifact > /artifact\n" +
		"FROM debian:12\nWORKDIR /etc\nCOPY --from=stage /artifact /opt/artifact\nRUN cat /opt/artifact\n"
	root := t.TempDir()
	invoke := func() (*image.Store, *build.Result) {
		t.Helper()
		d, _, err := cas.Open(root)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		world, store := pkgmgr.NewWorld(), image.NewStore()
		store.SetBacking(d)
		res, err := build.BuildContext(context.Background(), text, build.Options{
			Tag: "app:1", Force: build.ForceSeccomp, Store: store, World: world,
			Cache: build.NewPersistentCache(d),
		})
		if err != nil {
			t.Fatal(err)
		}
		return store, res
	}

	cold, res := invoke()
	if res.Executed == 0 || cold.TreeBuilds() != 2 {
		t.Fatalf("cold: executed %d, built %d base trees; want both bases built", res.Executed, cold.TreeBuilds())
	}
	warm, res := invoke()
	if res.Executed != 0 {
		t.Fatalf("warm: executed %d steps, want 0", res.Executed)
	}
	if builds, fills := warm.TreeBuilds(), warm.FlattenFills(); builds != 0 || fills != 0 {
		t.Fatalf("warm: built %d base trees and filled %d chains, want 0 and 0", builds, fills)
	}
}
