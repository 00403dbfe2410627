package cas

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// parityStore is a store of 200+ blobs with every record kind, written
// so that the records each blob backs are known: steps (some sharing a
// layer), multi-layer tags, and chains with their own snapshot blobs.
type parityStore struct {
	layers []string // layer digest i backs step-i (and dup-i for i < 10)
	snaps  []string // snapshot digest k backs chain-k
	files  int      // blob files on disk
}

func buildParityStore(t *testing.T, root string) parityStore {
	t.Helper()
	d, _ := openT(t, root)
	var ps parityStore
	for i := 0; i < 200; i++ {
		// Sizes vary from a few bytes to tens of KiB, so the workers'
		// reads do not all finish in lockstep.
		layer := bytes.Repeat([]byte(fmt.Sprintf("layer-%03d;", i)), 1+(i*37)%3000)
		if err := d.PutStep(ctx, fmt.Sprintf("step-%03d", i), layer, 0); err != nil {
			t.Fatal(err)
		}
		ps.layers = append(ps.layers, Sum(layer))
		if i < 10 {
			if err := d.PutStep(ctx, fmt.Sprintf("dup-%03d", i), layer, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := d.PutStep(ctx, "no-layer", nil, 0); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 10; k++ {
		if err := d.PutTag(ctx, fmt.Sprintf("app:%d", k), ps.layers[k*20:k*20+4], nil); err != nil {
			t.Fatal(err)
		}
		snap := []byte(fmt.Sprintf("snapshot-%d", k))
		if err := d.PutChain(ctx, fmt.Sprintf("sha256:chain-%d", k), ps.layers[k*20+1:k*20+3], snap); err != nil {
			t.Fatal(err)
		}
		ps.snaps = append(ps.snaps, Sum(snap))
	}
	ps.files, _ = d.BlobStats()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	return ps
}

// damageParityStore applies one of each kind of blob damage and returns
// the digests whose content is lost (quarantined or moved away) and the
// quarantine/ entries a full-verify open must produce:
//
//   - layer 20 truncated;
//   - layer 41 with one bit flipped;
//   - chain 3's snapshot renamed under a digest it does not hash to;
//   - a directory in place of layer 5's file: unreadable but present,
//     so it is left alone and its records survive.
func damageParityStore(t *testing.T, root string, ps parityStore) (lost map[string]bool, quarantined []string) {
	t.Helper()
	d := &Dir{root: root}
	path := func(digest string) string {
		p, err := d.blobPath(digest)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	truncated, flipped, renamed, dir := ps.layers[20], ps.layers[41], ps.snaps[3], ps.layers[5]

	data, err := os.ReadFile(path(truncated))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path(truncated), data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	data, err = os.ReadFile(path(flipped))
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(path(flipped), data, 0o644); err != nil {
		t.Fatal(err)
	}

	wrong := Sum([]byte("bytes nobody wrote"))
	if err := os.MkdirAll(filepath.Dir(path(wrong)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(path(renamed), path(wrong)); err != nil {
		t.Fatal(err)
	}

	if err := os.Remove(path(dir)); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(path(dir), 0o755); err != nil {
		t.Fatal(err)
	}

	lost = map[string]bool{truncated: true, flipped: true, renamed: true}
	for _, dg := range []string{truncated, flipped, wrong} {
		quarantined = append(quarantined, "blob-"+strings.TrimPrefix(dg, DigestPrefix))
	}
	sort.Strings(quarantined)
	return lost, quarantined
}

// survivors is what a store's handle still serves, rendered for
// comparison.
func survivors(d *Dir) (steps, tags, chains []string) {
	for _, st := range d.Steps() {
		steps = append(steps, st.Key)
	}
	sort.Strings(steps)
	tags = d.TagNames()
	for k := 0; k < 10; k++ {
		if _, ok := d.Chain(fmt.Sprintf("sha256:chain-%d", k)); ok {
			chains = append(chains, fmt.Sprintf("sha256:chain-%d", k))
		}
	}
	return steps, tags, chains
}

// The concurrent open must reach exactly the outcome the serial fsck
// semantics define, whatever the worker count: every file checked, each
// damaged file quarantined once under its own name, the unreadable one
// left alone and counted present, and precisely the records that
// reference a lost blob dropped.
func TestParallelFsckMatchesSerialSemantics(t *testing.T) {
	for _, procs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			root := t.TempDir()
			ps := buildParityStore(t, root)
			lost, wantQuarantine := damageParityStore(t, root, ps)

			// The oracle: which records a serial pass keeps.
			var wantSteps, wantTags, wantChains []string
			for i, l := range ps.layers {
				if !lost[l] {
					wantSteps = append(wantSteps, fmt.Sprintf("step-%03d", i))
					if i < 10 {
						wantSteps = append(wantSteps, fmt.Sprintf("dup-%03d", i))
					}
				}
			}
			wantSteps = append(wantSteps, "no-layer")
			sort.Strings(wantSteps)
			for k := 0; k < 10; k++ {
				tagOK, chainOK := true, !lost[ps.snaps[k]]
				for _, l := range ps.layers[k*20 : k*20+4] {
					tagOK = tagOK && !lost[l]
				}
				for _, l := range ps.layers[k*20+1 : k*20+3] {
					chainOK = chainOK && !lost[l]
				}
				if tagOK {
					wantTags = append(wantTags, fmt.Sprintf("app:%d", k))
				}
				if chainOK {
					wantChains = append(wantChains, fmt.Sprintf("sha256:chain-%d", k))
				}
			}
			records := 200 + 10 + 1 + 10 + 10
			wantDropped := records - len(wantSteps) - len(wantTags) - len(wantChains)

			d, rep := openT(t, root)
			want := Report{
				BlobsChecked:     ps.files,
				BlobsQuarantined: len(wantQuarantine),
				JournalLines:     records,
				RecordsDropped:   wantDropped,
			}
			if rep != want {
				t.Fatalf("report %+v, want %+v", rep, want)
			}
			if ps.files < 200 || wantDropped < 5 {
				t.Fatalf("fixture too small to mean anything: %d files, %d drops", ps.files, wantDropped)
			}
			ents, err := os.ReadDir(filepath.Join(root, "quarantine"))
			if err != nil {
				t.Fatal(err)
			}
			var gotQuarantine []string
			for _, e := range ents {
				gotQuarantine = append(gotQuarantine, e.Name())
			}
			if fmt.Sprint(gotQuarantine) != fmt.Sprint(wantQuarantine) {
				t.Fatalf("quarantine/ holds %v, want %v", gotQuarantine, wantQuarantine)
			}
			steps, tags, chains := survivors(d)
			if fmt.Sprint(steps) != fmt.Sprint(wantSteps) {
				t.Fatalf("surviving steps %v, want %v", steps, wantSteps)
			}
			if fmt.Sprint(tags) != fmt.Sprint(wantTags) {
				t.Fatalf("surviving tags %v, want %v", tags, wantTags)
			}
			if fmt.Sprint(chains) != fmt.Sprint(wantChains) {
				t.Fatalf("surviving chains %v, want %v", chains, wantChains)
			}
			// The directory at layer 5's path was unreadable, not corrupt:
			// left in place, and its records kept.
			if _, ok := d.Step("step-005"); !ok {
				t.Fatal("record on an unreadable-but-present blob dropped")
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}

			// The damage was compacted away: the next open is clean.
			_, rep2 := openT(t, root)
			if rep2.Quarantined() || rep2.BlobsChecked != ps.files-len(wantQuarantine) {
				t.Fatalf("reopen after repair: %+v", rep2)
			}
		})
	}
}

// Presence at open is answered from the blob walk, but a digest the walk
// did not list is still stat-checked — a blob written after the walk by
// another handle is present, a missing one is not.
func TestPresenceFallsBackToStat(t *testing.T) {
	d, _ := openT(t, t.TempDir())
	digest, err := d.PutBlob(ctx, []byte("written after the walk"))
	if err != nil {
		t.Fatal(err)
	}
	present := d.presenceLocked(map[string]bool{})
	if !present(digest) {
		t.Fatal("blob on disk but missing from the walk reported absent")
	}
	if present(Sum([]byte("never written"))) {
		t.Fatal("missing blob reported present")
	}
	if present("sha256:not-a-digest") {
		t.Fatal("malformed digest reported present")
	}
}

// Every Open, failed ones included, lands one observation in
// ch_cas_open_seconds.
func TestOpenObservesLatency(t *testing.T) {
	before := mOpenSeconds.Count()
	openT(t, t.TempDir())
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(file); err == nil {
		t.Fatal("Open on a regular file succeeded")
	}
	if got := mOpenSeconds.Count() - before; got != 2 {
		t.Fatalf("ch_cas_open_seconds observed %d opens, want 2", got)
	}
}
