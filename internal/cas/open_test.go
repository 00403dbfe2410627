package cas

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
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
// layer) and multi-layer tags.
type parityStore struct {
	layers []string // layer digest i backs step-i (and dup-i for i < 10)
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
		if err := d.PutStep(ctx, fmt.Sprintf("step-%03d", i), withData(layer), 0); err != nil {
			t.Fatal(err)
		}
		ps.layers = append(ps.layers, Sum(layer))
		if i < 10 {
			if err := d.PutStep(ctx, fmt.Sprintf("dup-%03d", i), withData(layer), 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := d.PutStep(ctx, "no-layer", Layer{}, 0); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 10; k++ {
		if err := d.PutTag(ctx, fmt.Sprintf("app:%d", k), stored(ps.layers[k*20:k*20+4]...), nil); err != nil {
			t.Fatal(err)
		}
	}
	ps.files, _ = d.BlobStats()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	return ps
}

// damageParityStore applies one of each kind of blob damage and returns
// the digests whose content is lost (quarantined or moved away) and the
// quarantine/ entries Fsck must produce:
//
//   - layer 20 truncated;
//   - layer 41 with one bit flipped;
//   - layer 62 renamed under a digest it does not hash to;
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
	truncated, flipped, renamed, dir := ps.layers[20], ps.layers[41], ps.layers[62], ps.layers[5]

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
func survivors(d *Dir) (steps, tags []string) {
	for _, st := range d.Steps() {
		steps = append(steps, st.Key)
	}
	sort.Strings(steps)
	return steps, d.TagNames()
}

// The concurrent Fsck must reach exactly the outcome the serial fsck
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
			var wantSteps, wantTags []string
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
				tagOK := true
				for _, l := range ps.layers[k*20 : k*20+4] {
					tagOK = tagOK && !lost[l]
				}
				if tagOK {
					wantTags = append(wantTags, fmt.Sprintf("app:%d", k))
				}
			}
			records := 200 + 10 + 1 + 10
			wantDropped := records - len(wantSteps) - len(wantTags)

			d, _ := openT(t, root)
			rep := fsckT(t, d)
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
			steps, tags := survivors(d)
			if fmt.Sprint(steps) != fmt.Sprint(wantSteps) {
				t.Fatalf("surviving steps %v, want %v", steps, wantSteps)
			}
			if fmt.Sprint(tags) != fmt.Sprint(wantTags) {
				t.Fatalf("surviving tags %v, want %v", tags, wantTags)
			}
			// The directory at layer 5's path was unreadable, not corrupt:
			// left in place, and its records kept.
			if _, ok := d.Step("step-005"); !ok {
				t.Fatal("record on an unreadable-but-present blob dropped")
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}

			// The damage was compacted away: the next open and its Fsck
			// are clean.
			d2, _ := openT(t, root)
			rep2 := fsckT(t, d2)
			if rep2.Quarantined() || rep2.BlobsChecked != ps.files-len(wantQuarantine) {
				t.Fatalf("reopen after repair: %+v", rep2)
			}
		})
	}
}

// Presence after Fsck is answered from the blob walk, but a digest the
// walk did not list is still checked on disk — a blob written after the
// walk by another handle is present, a missing one is not. A malformed
// digest is absent even where a file sits at the path it would resolve
// to: it never reaches a path or a syscall.
func TestPresenceFallsBackToStat(t *testing.T) {
	root := t.TempDir()
	d, _ := openT(t, root)
	digest, err := putBlob(d, []byte("written after the walk"))
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

	h := strings.TrimPrefix(digest, DigestPrefix)
	blobs := filepath.Join(root, "blobs", "sha256")
	// plant puts a file at rel under blobs/sha256, so a malformed digest
	// that reached the filesystem would find it.
	plant := func(rel string) {
		t.Helper()
		p := filepath.Join(blobs, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte("planted"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	plant(h[:2] + "/" + h[3:])         // "ab//<61>" resolves here
	plant("../" + h[:2] + "/" + h[6:]) // "..//ab/<58>" resolves here
	plant(h[:2] + "/" + h[2:63])       // 63 characters
	plant(h[:2] + "/" + h[2:] + "0")   // 65 characters
	for _, bad := range []string{
		DigestPrefix + h[:2] + "/" + h[3:],
		DigestPrefix + ".." + "/" + h[:2] + "/" + h[6:],
		DigestPrefix + h[:63],
		DigestPrefix + h + "0",
		DigestPrefix + h[:62] + "g0",
		DigestPrefix + h[:62] + "\x00z",
		DigestPrefix + strings.Repeat("z", 64),
		DigestPrefix,
		h,
		"sha512:" + h,
		"",
	} {
		if present(bad) {
			t.Errorf("malformed digest %q reported present", bad)
		}
	}
	if !present(digest) {
		t.Fatal("planted files hid the real blob")
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

// Open on a regular file names the problem: the path is not a directory.
// Callers (ch-image --cache-dir, daemon.New) surface this error as is.
func TestOpenRegularFileNotADirectory(t *testing.T) {
	file := filepath.Join(t.TempDir(), "afile")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(file); err == nil || !strings.Contains(err.Error(), "not a directory") {
		t.Fatalf("Open on a regular file: err=%v, want not a directory", err)
	}
}

// A store written by a build that still persisted flatten chains opens
// clean: the legacy "chain" journal line passes its checksum, is ignored
// as an unknown record type, and drops at the next compaction, while the
// snapshot blob it named is unreferenced and goes at the next GC.
func TestOpenIgnoresLegacyChainRecord(t *testing.T) {
	root := t.TempDir()
	d, _ := openT(t, root)
	layer, err := putBlob(d, []byte("tag layer"))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.PutTag(ctx, "app:1", stored(layer), nil); err != nil {
		t.Fatal(err)
	}
	snap, err := putBlob(d, []byte("whole-tree snapshot"))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	payload := fmt.Sprintf(`{"t":"chain","chain_idx":{"chain":%q,"layers":[%q],"snap":%q}}`,
		Sum([]byte("chain")), layer, snap)
	sum := sha256.Sum256([]byte(payload))
	j, err := os.OpenFile(filepath.Join(root, "journal"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fmt.Fprintf(j, "%s %s\n", hex.EncodeToString(sum[:]), payload); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	d2, _ := openT(t, root)
	rep := fsckT(t, d2)
	if rep.Quarantined() {
		t.Fatalf("legacy chain record read as damage: %+v", rep)
	}
	if tg, ok := d2.Tag("app:1"); !ok || len(tg.Layers) != 1 || tg.Layers[0] != layer {
		t.Fatalf("tag: %+v ok=%v", tg, ok)
	}
	stats, err := d2.GC(ctx, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.BlobsSwept != 1 || hasBlob(d2, snap) || !hasBlob(d2, layer) {
		t.Fatalf("GC: %+v, snapshot kept=%v, layer kept=%v", stats, hasBlob(d2, snap), hasBlob(d2, layer))
	}
	data, err := os.ReadFile(filepath.Join(root, "journal"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte(`"chain"`)) {
		t.Fatalf("compacted journal still holds a chain record:\n%s", data)
	}
}
