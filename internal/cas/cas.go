// Package cas is the persistent content-addressed store behind warm
// cross-invocation builds — the on-disk analog of ch-image's storage
// directory. A Dir holds three things:
//
//   - a sharded blob directory (blobs/sha256/<aa>/<rest>) of write-once
//     byte strings keyed by their digest: image layers and
//     instruction-cache layers both land here, deduplicated by content;
//   - an append-only journal of metadata records — instruction-cache
//     entries and image tags — each line carrying its own checksum so a
//     torn tail or a flipped bit is detected, not replayed;
//   - a quarantine directory where corrupt journal lines are moved at
//     open and corrupt blobs when a read or Fsck finds them, so a damaged
//     store degrades to a colder cache instead of a failed build.
//
// Crash safety is by construction rather than by fsync discipline: blobs
// are written to a private temp file and renamed into place (readers never
// observe a partial blob under a valid name), journal lines are appended
// in one write and validated by checksum at open, and every record only
// *references* blobs by digest — so the worst a crash can do is strand a
// temp file (removed at next open) or tear the final journal line
// (quarantined at next open). Records that survive the checksum but
// reference a missing or quarantined blob are dropped at open the same
// way; the affected build steps simply re-execute.
//
// Cross-process safety is by an advisory flock on DIR/lock: every open
// handle holds it shared, and the operations that rewrite the journal or
// sweep the blob directory — GC, Reset, compaction — convert to exclusive
// first (bounded by the lock wait; see ErrBusy), so a maintenance pass in
// one process can never interleave with an append in another. See
// storeLock for the full protocol.
//
// The higher layers attach a Dir with image.Store.SetBacking and
// build.NewPersistentCache; ch-image exposes it as --cache-dir and the
// cache ls|gc|fsck|reset subcommands.
package cas

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DigestPrefix is the digest scheme every blob key carries, matching
// image.Digest's rendering.
const DigestPrefix = "sha256:"

// Sum computes the canonical digest of data ("sha256:<hex>").
//
//chlint:keyroot
func Sum(data []byte) string {
	sum := sha256.Sum256(data)
	return DigestPrefix + hex.EncodeToString(sum[:])
}

// Step is one persisted instruction-cache entry: the cache key, the digest
// of the layer blob the instruction produced ("" when it changed nothing)
// and the apt-workaround rewrite count it reported.
type Step struct {
	Key      string `json:"key"`
	Layer    string `json:"layer,omitempty"`
	Modified int    `json:"modified,omitempty"`
}

// Tag is one persisted image tag: the ordered layer digests and the
// marshalled image config.
type Tag struct {
	Name   string          `json:"name"`
	Layers []string        `json:"layers"`
	Config json.RawMessage `json:"config,omitempty"`
}

// record is one journal line. T selects which of the payload fields is
// live: "step", "tag" or "untag" (the name alone).
type record struct {
	T     string `json:"t"`
	Stp   *Step  `json:"step,omitempty"`
	Tag   *Tag   `json:"tag,omitempty"`
	Untag string `json:"untag,omitempty"`
}

// Report summarises what validation found and did: Open's journal
// replay and presence check, Fsck's blob pass, and the blobs a verified
// read quarantined.
type Report struct {
	BlobsChecked       int // blob files Fsck scanned and digest-verified
	BlobsQuarantined   int // corrupt blob files moved to quarantine/
	JournalLines       int // journal lines read
	JournalQuarantined int // torn or checksum-failing lines quarantined
	RecordsDropped     int // well-formed records dropped for missing blobs
}

// Quarantined reports whether validation found any damage at all.
func (r Report) Quarantined() bool {
	return r.BlobsQuarantined > 0 || r.JournalQuarantined > 0 || r.RecordsDropped > 0
}

// String words the damage validation found, for the one line a CLI
// prints when Quarantined.
func (r Report) String() string {
	return fmt.Sprintf("quarantined %d corrupt blob(s) and %d journal line(s), dropped %d record(s); affected steps will re-execute",
		r.BlobsQuarantined, r.JournalQuarantined, r.RecordsDropped)
}

// Option configures Open.
type Option func(*openConfig)

type openConfig struct {
	lockWait time.Duration
}

// WithLockWait bounds how long this handle's exclusive operations (GC,
// Reset, and the compaction an append needs after an external journal
// rewrite) wait for the store lock before failing with ErrBusy (default
// DefaultLockWait; <= 0 tries once). The journal repair at Open and Fsck
// never waits.
func WithLockWait(wait time.Duration) Option {
	return func(c *openConfig) { c.lockWait = wait }
}

// Dir is an open content-addressed store rooted at a directory. All
// methods are safe for concurrent use by multiple goroutines sharing the
// one handle (the build pool's writers). Distinct processes coordinate
// through the store lock (shared while open, exclusive around GC, Reset
// and journal compaction — see storeLock), the append-only journal and
// write-once blobs, so appends from many processes interleave whole
// records and a maintenance rewrite never races any of them.
type Dir struct {
	root string

	mu       sync.Mutex
	lock     *storeLock
	lockWait time.Duration
	journal  *os.File
	steps    map[string]Step
	tags     map[string]Tag
	order    map[string]uint64 // step key → journal recency
	orderSeq uint64
	tornTail bool // journal ends in an unterminated fragment
	report   Report
	seq      uint64 // temp-file uniquifier
	closed   bool

	// injMu guards inj separately from d.mu: failpoints fire inside
	// sections that already hold d.mu.
	injMu sync.Mutex
	inj   Injector
}

// Open opens (creating if absent) the store at root and validates its
// metadata: every journal line is checksum-verified, every blob the
// surviving records reference is presence-checked with one stat per
// distinct digest, and the records whose blobs are missing are dropped.
// Blob contents are not read: Blob digest-verifies each read and
// quarantines what fails, and Fsck verifies every blob on request, so an
// open costs O(journal lines), not O(store bytes). Corrupt journal lines
// are moved to quarantine/. The returned Report says what was found;
// damage is never an error — a damaged store is just a colder one.
// Opening fails only when root exists and is not a directory, the
// filesystem refuses the layout, or the store lock cannot be
// established.
//
// The handle holds the store lock shared until Close, so another
// process's GC/Reset/compaction waits for this handle (or fails with
// ErrBusy) instead of rewriting state underneath it.
func Open(root string, opts ...Option) (*Dir, Report, error) {
	defer mOpenSeconds.ObserveSince(time.Now())
	cfg := openConfig{lockWait: DefaultLockWait}
	for _, o := range opts {
		o(&cfg)
	}
	if st, err := os.Stat(root); err == nil && !st.IsDir() {
		return nil, Report{}, fmt.Errorf("cas: %s: not a directory", root)
	}
	for _, sub := range []string{"", "blobs/sha256", "quarantine", "tmp"} {
		if err := os.MkdirAll(filepath.Join(root, sub), 0o755); err != nil {
			return nil, Report{}, fmt.Errorf("cas: %w", err)
		}
	}
	d := &Dir{root: root, lockWait: cfg.lockWait}
	lk, err := openLock(d.path("lock"))
	if err != nil {
		return nil, Report{}, err
	}
	d.lock = lk
	fail := func(err error) (*Dir, Report, error) {
		if d.journal != nil {
			d.journal.Close()
		}
		lk.close()
		return nil, d.report, err
	}
	// Stranded temp files are crash litter from interrupted blob writes;
	// nothing references them (a rename never happened), so clear them.
	// Only under an uncontended exclusive lock, though: with the store
	// open elsewhere, a temp file may be another process's in-flight blob
	// write, and deleting it would fail that write's rename.
	if d.lock.tryExclusive() == nil {
		if tmps, err := os.ReadDir(d.path("tmp")); err == nil {
			for _, t := range tmps {
				os.Remove(filepath.Join(d.path("tmp"), t.Name()))
			}
		}
		if err := d.lock.shared(); err != nil {
			return fail(err)
		}
	}
	f, err := os.OpenFile(d.path("journal"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fail(fmt.Errorf("cas: journal: %w", err))
	}
	d.journal = f
	if d.report, err = d.loadLocked(); err != nil {
		return fail(err)
	}
	if d.report.JournalQuarantined > 0 || d.report.RecordsDropped > 0 {
		if err := d.repairJournalLocked(); err != nil {
			return fail(err)
		}
	}
	return d, d.report, nil
}

// Fsck reads back every blob file and digest-verifies it against its
// name, spread across CPUs (see fsckBlobs). Mismatches — truncated
// writes, flipped bits, renamed files — are moved to quarantine/, the
// records referencing them are dropped, and the journal is rewritten to
// the survivors the way Open repairs it. An unreadable file is left in
// place: Blob verifies it again at use. Fsck costs O(store bytes); it is
// `ch-image cache fsck` and ch-imaged's one startup check, never part of
// an open.
//
// The returned Report is the handle's: what Open found, with the blob
// pass's counts added, so on a fresh handle it says everything Fsck and
// Open found wrong with the store. Damage is not an error.
func (d *Dir) Fsck(ctx context.Context) (Report, error) {
	if err := ctxErr(ctx); err != nil {
		return Report{}, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return d.report, fmt.Errorf("cas: store is closed")
	}
	scan := d.fsckBlobs()
	dropped := d.dropDanglingRecordsLocked(d.presenceLocked(scan.present))
	d.report.BlobsChecked = scan.checked
	d.report.BlobsQuarantined += scan.quarantined
	d.report.RecordsDropped += dropped
	if dropped > 0 {
		if err := d.repairJournalLocked(); err != nil {
			return d.report, err
		}
	}
	return d.report, nil
}

// repairJournalLocked rewrites a journal that holds damage: a torn tail
// fragment (which a plain O_APPEND write would merge with, corrupting
// the next record) or records just dropped (which would be re-parsed,
// re-dropped and re-warned about at every open). It rewrites the journal
// to exactly the surviving records — atomically, like GC's compaction,
// under the exclusive lock so no concurrent append lands between the
// read of the journal and the rename that replaces it. The lock is tried
// once, not waited for: a peer holding the store open (a resident daemon
// holds it for life) would keep it busy for the whole wait, and the
// degraded path is safe without it. Callers hold d.mu and the shared
// lock, which they still hold on return.
func (d *Dir) repairJournalLocked() error {
	switch err := d.lock.tryExclusive(); {
	case err == nil:
		// Appends may have landed since the journal was read; recompute
		// the surviving set from the current journal.
		_, err := d.loadLocked()
		if err == nil {
			err = d.writeCompactJournalLocked()
		}
		if serr := d.lock.shared(); err == nil {
			err = serr
		}
		return err
	case errors.Is(err, ErrBusy):
		// Peers hold the store open; compaction must wait for a later
		// open. Degrade: terminate any torn tail with a bare newline so
		// O_APPEND writes cannot merge with the fragment (the fragment
		// becomes a standalone bad line, quarantined again next open),
		// and keep the dropped records dropped in memory.
		if d.tornTail {
			return d.terminateTornTailLocked()
		}
		return nil
	default:
		return err
	}
}

// terminateTornTailLocked appends a single newline to the journal so the
// unterminated fragment at EOF becomes a standalone (checksum-failing)
// line instead of merging with the next append. The degraded repair
// path: used only when damage was found but the exclusive lock for a
// real compaction is unavailable.
//
//chlint:allow failpointcover -- open-time torn-tail repair runs before the store serves builds; the soak faults the append path instead
func (d *Dir) terminateTornTailLocked() error {
	f, err := os.OpenFile(d.path("journal"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("cas: journal: %w", err)
	}
	_, werr := f.WriteString("\n")
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("cas: journal: %w", werr)
	}
	d.tornTail = false
	return nil
}

// loadLocked replaces the in-memory record state with a replay of the
// journal on disk, then drops the records whose blobs are not present.
// Open runs it first; the journal repair and GC run it again under the
// exclusive store lock, because other processes may have appended or
// compacted since. Each line is "<sha256-hex-of-payload> <payload-json>";
// lines that fail the checksum (torn tail, bit rot) are appended to
// quarantine/journal.bad and skipped. It returns the journal counts and
// the records it dropped.
//
//chlint:allow failpointcover -- open-time journal replay; recovery behavior under partial reads is exercised by the torn-tail corpus, not failpoints
func (d *Dir) loadLocked() (Report, error) {
	var rep Report
	data, err := os.ReadFile(d.path("journal"))
	if err != nil && !os.IsNotExist(err) {
		return rep, fmt.Errorf("cas: journal: %w", err)
	}
	d.clearRecordsLocked()
	// A journal not ending in '\n' has a torn final line; Split leaves the
	// fragment (or "") as the last element, and the checksum rejects it.
	// Remember the tear: the degraded repair path (compaction lock busy)
	// must terminate it before any O_APPEND write can merge with it.
	d.tornTail = len(data) > 0 && data[len(data)-1] != '\n'
	var bad [][]byte
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		rep.JournalLines++
		rec, ok := decodeLine(line)
		if !ok {
			bad = append(bad, line)
			continue
		}
		d.applyLocked(rec)
	}
	if rep.JournalQuarantined = len(bad); len(bad) > 0 {
		f, err := os.OpenFile(d.path("quarantine", "journal.bad"),
			os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err == nil {
			f.Write(append(bytes.Join(bad, []byte("\n")), '\n'))
			f.Close()
		}
	}
	rep.RecordsDropped = d.dropDanglingRecordsLocked(d.presenceLocked(nil))
	return rep, nil
}

// clearRecordsLocked empties the in-memory record state.
func (d *Dir) clearRecordsLocked() {
	d.steps = map[string]Step{}
	d.tags = map[string]Tag{}
	d.order = map[string]uint64{}
	d.orderSeq = 0
	d.tornTail = false
}

// Root returns the directory the store lives in.
func (d *Dir) Root() string { return d.root }

// Report returns what validation on this handle has found so far.
func (d *Dir) Report() Report {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.report
}

// Close releases the journal handle and the store lock (letting another
// process's pending GC/Reset proceed). Further writes fail; reads of
// already-loaded state keep working.
func (d *Dir) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	err := d.journal.Close()
	if lerr := d.lock.close(); err == nil {
		err = lerr
	}
	return err
}

func (d *Dir) path(parts ...string) string {
	return filepath.Join(append([]string{d.root}, parts...)...)
}

// blobPath maps a digest to its sharded file path.
func (d *Dir) blobPath(digest string) (string, error) {
	hexpart, ok := strings.CutPrefix(digest, DigestPrefix)
	if !ok || len(hexpart) != 64 {
		return "", fmt.Errorf("cas: malformed digest %q", digest)
	}
	if _, err := hex.DecodeString(hexpart); err != nil {
		return "", fmt.Errorf("cas: malformed digest %q", digest)
	}
	return d.path("blobs", "sha256", hexpart[:2], hexpart[2:]), nil
}

// walkBlobs visits every file in the sharded blob directory — the one
// traversal fsck, stats and GC all share, so a layout change lands in one
// place.
func (d *Dir) walkBlobs(visit func(digest, path string, ent os.DirEntry)) {
	shards, err := os.ReadDir(d.path("blobs", "sha256"))
	if err != nil {
		return
	}
	for _, shard := range shards {
		if !shard.IsDir() {
			continue
		}
		files, err := os.ReadDir(d.path("blobs", "sha256", shard.Name()))
		if err != nil {
			continue
		}
		for _, f := range files {
			visit(DigestPrefix+shard.Name()+f.Name(),
				d.path("blobs", "sha256", shard.Name(), f.Name()), f)
		}
	}
}

// blobScan is what Fsck's blob pass found: how many files it checked and
// quarantined, and the digests it read back intact.
type blobScan struct {
	checked, quarantined int
	present              map[string]bool
}

// fsckBlobs digest-verifies every blob file against its name and
// quarantines mismatches (truncated writes, flipped bits, renamed files).
// The reads and hashes are split across min(GOMAXPROCS, files) workers,
// the calling goroutine among them, so a busy machine that runs none of
// the others still finishes the pass; the quarantine moves and the
// counting happen here, after they join.
func (d *Dir) fsckBlobs() blobScan {
	type blobFile struct {
		digest, path string
		intact       bool
		err          error // unreadable
	}
	var files []blobFile
	d.walkBlobs(func(digest, p string, _ os.DirEntry) {
		files = append(files, blobFile{digest: digest, path: p})
	})
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	work := func() {
		v := newBlobVerifier()
		for i := next.Add(1) - 1; i < int64(len(files)); i = next.Add(1) - 1 {
			files[i].intact, files[i].err = v.check(files[i].path, files[i].digest)
		}
	}
	for w := min(runtime.GOMAXPROCS(0), len(files)); w > 1; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()

	scan := blobScan{checked: len(files), present: make(map[string]bool, len(files))}
	for _, f := range files {
		switch {
		case f.err != nil:
			// Unreadable is not the same as corrupt: a transient
			// EMFILE/EIO must not destroy a healthy blob. Leave it, and
			// out of present, so presenceLocked stats it; Blob()
			// digest-verifies again at use time.
		case f.intact:
			scan.present[f.digest] = true
		default:
			d.quarantine(f.path, "blob-"+strings.TrimPrefix(f.digest, DigestPrefix))
			scan.quarantined++
		}
	}
	return scan
}

// blobVerifier hashes blob files through one reusable read buffer and
// hasher; each fsck worker owns one.
type blobVerifier struct {
	buf []byte
	h   hash.Hash
	sum [sha256.Size]byte
	hex [2 * sha256.Size]byte
}

func newBlobVerifier() *blobVerifier {
	return &blobVerifier{buf: make([]byte, 32<<10), h: sha256.New()}
}

// check reads the file at p and reports whether its content hashes to
// digest, or the error that kept it from being read. The read loop is
// written out because io.CopyBuffer from an *os.File goes through
// File.WriteTo, which allocates on every call.
func (v *blobVerifier) check(p, digest string) (bool, error) {
	f, err := os.Open(p)
	if err != nil {
		return false, err
	}
	defer f.Close()
	v.h.Reset()
	for {
		n, err := f.Read(v.buf)
		v.h.Write(v.buf[:n])
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return false, err
		}
	}
	hex.Encode(v.hex[:], v.h.Sum(v.sum[:0]))
	hexpart, ok := strings.CutPrefix(digest, DigestPrefix)
	return ok && string(v.hex[:]) == hexpart, nil
}

// quarantine moves a damaged file aside, preserving it for post-mortems
// instead of deleting evidence. A rename collision appends a sequence
// number; a failed rename falls back to removal so the bad bytes cannot
// be re-read as valid next open.
//
//chlint:allow failpointcover -- damage-disposal path; quarantine is the response to an (injected or real) fault, not a faultable step
func (d *Dir) quarantine(p, as string) {
	mQuarantines.Inc()
	dst := d.path("quarantine", as)
	for i := 1; ; i++ {
		if _, err := os.Stat(dst); os.IsNotExist(err) {
			break
		}
		dst = d.path("quarantine", fmt.Sprintf("%s.%d", as, i))
	}
	if os.Rename(p, dst) != nil {
		os.Remove(p)
	}
}

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
	var rec record
	if json.Unmarshal(payload, &rec) != nil {
		return record{}, false
	}
	return rec, true
}

// applyLocked folds one validated record into the in-memory state. Later records
// win, so re-recording a step or re-tagging a name behaves like a map
// write, and "untag" deletes. Steps also record their journal position
// (most recent record wins there too): the recency order the
// size-budgeted GC evicts by, preserved across compactions because
// writeCompactJournalLocked emits steps in this order.
func (d *Dir) applyLocked(rec record) {
	switch rec.T {
	case "step":
		if rec.Stp != nil {
			d.steps[rec.Stp.Key] = *rec.Stp
			d.orderSeq++
			d.order[rec.Stp.Key] = d.orderSeq
		}
	case "tag":
		if rec.Tag != nil {
			d.tags[rec.Tag.Name] = *rec.Tag
		}
	case "untag":
		delete(d.tags, rec.Untag)
	}
	// Unknown record types are ignored: an older binary opening a newer
	// store must degrade to a colder cache, not a failed build, and a
	// record type this binary no longer writes drops at the next
	// compaction.
}

// dropDanglingRecordsLocked removes records whose blobs did not survive
// validation: a step whose layer is gone cannot replay, a tag whose layer
// is gone cannot load. When anything is dropped, Open and Fsck compact
// the journal immediately, so the damage is reported once, not at every
// subsequent open. It returns how many records it dropped.
func (d *Dir) dropDanglingRecordsLocked(present func(digest string) bool) int {
	dropped := 0
	for key, st := range d.steps {
		if st.Layer != "" && !present(st.Layer) {
			delete(d.steps, key)
			dropped++
		}
	}
	for name, tg := range d.tags {
		for _, l := range tg.Layers {
			if !present(l) {
				delete(d.tags, name)
				dropped++
				break
			}
		}
	}
	return dropped
}

// presenceLocked answers "is this blob present" for one pass over the
// records: from walked, the digests Fsck's blob pass read back intact
// (nil at open), and otherwise with one stat per distinct digest. So
// after Fsck a quarantined blob is absent and an unreadable one present,
// as a stat after the pass would say, and a blob another process wrote
// after the walk counts too.
func (d *Dir) presenceLocked(walked map[string]bool) func(digest string) bool {
	statted := map[string]bool{}
	return func(digest string) bool {
		if walked[digest] {
			return true
		}
		ok, seen := statted[digest]
		if !seen {
			ok = d.hasBlobLocked(digest)
			statted[digest] = ok
		}
		return ok
	}
}

func (d *Dir) hasBlobLocked(digest string) bool {
	p, err := d.blobPath(digest)
	if err != nil {
		return false
	}
	_, err = os.Stat(p)
	return err == nil
}

// append writes one checksummed record line to the journal and mirrors it
// into the in-memory state. Callers hold d.mu.
//
// Before writing it checks that the handle still names DIR/journal. A
// cooperating process cannot replace the file while we hold the shared
// store lock (compaction requires the exclusive lock), but a legacy or
// external writer still can; appending to the unlinked inode would
// "succeed" invisibly, so an orphaned handle first rewrites the journal
// from its own in-memory state — a superset of everything it ever
// appended — under the exclusive lock, and then appends to the fresh
// file. (Records the *other* writer added that this one never loaded are
// its to re-append.)
func (d *Dir) appendLocked(ctx context.Context, rec record) error {
	if d.closed {
		return fmt.Errorf("cas: store is closed")
	}
	if err := d.failpoint(OpJournalAppend); err != nil {
		return fmt.Errorf("cas: journal: %w", err)
	}
	orphaned, err := d.journalOrphanedLocked()
	if err != nil {
		return err
	}
	if orphaned {
		// The detect→rewrite window itself must not race another writer:
		// hold the exclusive lock across the compaction.
		if err := d.lock.exclusive(ctx, d.lockWait); err != nil {
			return err
		}
		err := d.writeCompactJournalLocked()
		if serr := d.lock.shared(); err == nil {
			err = serr
		}
		if err != nil {
			return err
		}
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("cas: %w", err)
	}
	h := sha256.Sum256(payload)
	line := hex.EncodeToString(h[:]) + " " + string(payload) + "\n"
	// One write call per line: O_APPEND appends are atomic for writes of
	// this size, so concurrent handles interleave whole lines.
	if _, err := d.journal.WriteString(line); err != nil {
		return fmt.Errorf("cas: journal: %w", err)
	}
	mJournalAppends.Inc()
	d.applyLocked(rec)
	return nil
}

// journalOrphanedLocked reports whether the open journal handle no longer
// backs DIR/journal. A failed stat of our own handle is surfaced, not
// swallowed: guessing "not orphaned" would let the next append land on a
// possibly-unlinked inode, which is exactly the silent loss this check
// exists to prevent. Callers hold d.mu.
func (d *Dir) journalOrphanedLocked() (bool, error) {
	fi, err := d.journal.Stat()
	if err != nil {
		return false, fmt.Errorf("cas: journal: %w", err)
	}
	pi, err := os.Stat(d.path("journal"))
	if err != nil {
		return true, nil // the file is gone entirely
	}
	return !os.SameFile(fi, pi), nil
}

// PutBlob stores data under its digest and returns the digest. Blobs are
// write-once: re-putting existing content is a cheap no-op, and the write
// itself goes to a private temp file renamed into place, so no reader can
// observe a partial blob. The whole operation runs under the Dir lock,
// which is what makes it atomic with respect to a concurrent GC sweep.
func (d *Dir) PutBlob(ctx context.Context, data []byte) (string, error) {
	if err := ctxErr(ctx); err != nil {
		return "", err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.putBlobLocked(data)
}

// putBlobLocked is PutBlob with d.mu held — the form PutStep uses so its
// blob write and journal append are one critical section: a GC running
// between the two would otherwise sweep the not-yet-referenced blob and
// leave the record dangling.
func (d *Dir) putBlobLocked(data []byte) (string, error) {
	digest := Sum(data)
	p, err := d.blobPath(digest)
	if err != nil {
		return "", err
	}
	if _, err := os.Stat(p); err == nil {
		return digest, nil
	}
	t0 := time.Now()
	d.seq++
	tmp := d.path("tmp", fmt.Sprintf("blob-%d-%s", d.seq, digest[len(digest)-12:]))
	if err := d.failpoint(OpBlobWrite); err != nil {
		// A torn-write fault leaves the partial temp behind — never renamed
		// into place, so it is litter for the next open's tmp sweep, not a
		// reachable blob.
		var torn *TornWrite
		if errors.As(err, &torn) {
			keep := torn.Keep
			if keep > len(data) {
				keep = len(data)
			}
			os.WriteFile(tmp, data[:keep], 0o644)
		}
		return "", fmt.Errorf("cas: blob %s: %w", digest, err)
	}
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return "", fmt.Errorf("cas: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		os.Remove(tmp)
		return "", fmt.Errorf("cas: %w", err)
	}
	if err := d.failpoint(OpBlobRename); err != nil {
		os.Remove(tmp)
		return "", fmt.Errorf("cas: blob %s: %w", digest, err)
	}
	if err := os.Rename(tmp, p); err != nil {
		os.Remove(tmp)
		return "", fmt.Errorf("cas: %w", err)
	}
	mBlobWriteBytes.Add(uint64(len(data)))
	mBlobWriteSeconds.ObserveSince(t0)
	return digest, nil
}

// Blob reads a blob back, digest-verifying it on the way out. Content that
// no longer matches its name (bit rot since open, or tampering) is
// quarantined and reported as an error — callers treat it as a cache miss.
func (d *Dir) Blob(ctx context.Context, digest string) ([]byte, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	p, err := d.blobPath(digest)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	// An injected read fault reports as-is, before the real read: the blob
	// on disk is healthy, so quarantining it would turn a simulated
	// transient error into real data loss.
	if err := d.failpoint(OpBlobRead); err != nil {
		return nil, fmt.Errorf("cas: blob %s: %w", digest, err)
	}
	data, err := os.ReadFile(p)
	if err != nil {
		if !os.IsNotExist(err) {
			// Present but unserveable (EACCES, EIO, wrong file type):
			// move it aside so a later re-put of the known-good bytes can
			// heal the store instead of stat-hitting the broken file
			// forever. The bytes are preserved in quarantine, not lost.
			d.mu.Lock()
			d.quarantine(p, "blob-"+strings.TrimPrefix(digest, DigestPrefix))
			d.report.BlobsQuarantined++
			d.mu.Unlock()
		}
		return nil, fmt.Errorf("cas: blob %s: %w", digest, err)
	}
	if Sum(data) != digest {
		d.mu.Lock()
		d.quarantine(p, "blob-"+strings.TrimPrefix(digest, DigestPrefix))
		d.report.BlobsQuarantined++
		d.mu.Unlock()
		return nil, fmt.Errorf("cas: blob %s: content does not match digest", digest)
	}
	mBlobReadBytes.Add(uint64(len(data)))
	mBlobReadSeconds.ObserveSince(t0)
	return data, nil
}

// HasBlob reports blob presence without reading it.
func (d *Dir) HasBlob(digest string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.hasBlobLocked(digest)
}

// PutStep persists one instruction-cache entry: the layer bytes (nil for a
// step that changed nothing) go to the blob store, the key and metadata to
// the journal.
func (d *Dir) PutStep(ctx context.Context, key string, layer []byte, modified int) error {
	if err := ctxErr(ctx); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	st := Step{Key: key, Modified: modified}
	if layer != nil {
		digest, err := d.putBlobLocked(layer)
		if err != nil {
			return err
		}
		st.Layer = digest
	}
	if cur, ok := d.steps[key]; ok && cur == st {
		return nil // identical re-record: the journal must not grow per run
	}
	return d.appendLocked(ctx, record{T: "step", Stp: &st})
}

// Step looks up a persisted instruction-cache entry by key.
func (d *Dir) Step(key string) (Step, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	st, ok := d.steps[key]
	return st, ok
}

// Steps returns every persisted instruction-cache entry (copied; callers
// own the slice).
func (d *Dir) Steps() []Step {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]Step, 0, len(d.steps))
	for _, st := range d.steps {
		out = append(out, st)
	}
	return out
}

// PutTag persists an image tag. The layer blobs must already be in the
// store (image.Store.Put writes them first); a tag referencing a missing
// blob is rejected rather than recorded dangling.
func (d *Dir) PutTag(ctx context.Context, name string, layers []string, config []byte) error {
	if err := ctxErr(ctx); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, l := range layers {
		if !d.hasBlobLocked(l) {
			return fmt.Errorf("cas: tag %s: layer %s not in store", name, l)
		}
	}
	tg := Tag{Name: name, Layers: append([]string(nil), layers...), Config: config}
	if cur, ok := d.tags[name]; ok && sameTag(cur, tg) {
		// Re-seeding the same base images every invocation must not grow
		// the append-only journal by one identical line per run.
		return nil
	}
	return d.appendLocked(ctx, record{T: "tag", Tag: &tg})
}

// sameTag reports whether two tag records serialise identically.
func sameTag(a, b Tag) bool {
	if a.Name != b.Name || len(a.Layers) != len(b.Layers) || string(a.Config) != string(b.Config) {
		return false
	}
	for i := range a.Layers {
		if a.Layers[i] != b.Layers[i] {
			return false
		}
	}
	return true
}

// Tag looks up a persisted tag.
func (d *Dir) Tag(name string) (Tag, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	tg, ok := d.tags[name]
	return tg, ok
}

// DeleteTag removes a tag (journalled as an "untag" record; blobs stay
// until GC). Deleting an absent tag is a no-op.
func (d *Dir) DeleteTag(ctx context.Context, name string) error {
	if err := ctxErr(ctx); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.tags[name]; !ok {
		return nil
	}
	return d.appendLocked(ctx, record{T: "untag", Untag: name})
}

// TagNames lists persisted tags, sorted.
func (d *Dir) TagNames() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]string, 0, len(d.tags))
	for n := range d.tags {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// BlobStats walks the blob directory and reports file count and total
// bytes — `cache ls` bookkeeping, not a hot path.
func (d *Dir) BlobStats() (count int, bytes int64) {
	d.walkBlobs(func(_, _ string, ent os.DirEntry) {
		if info, err := ent.Info(); err == nil {
			count++
			bytes += info.Size()
		}
	})
	return count, bytes
}

// Reset wipes the store back to empty: blobs, journal, quarantine. It
// requires the exclusive store lock (the lock file itself survives the
// wipe), failing with ErrBusy while another process has the store open.
func (d *Dir) Reset(ctx context.Context) error {
	if err := ctxErr(ctx); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.failpoint(OpLock); err != nil {
		return fmt.Errorf("cas: reset: %w", err)
	}
	if err := d.lock.exclusive(ctx, d.lockWait); err != nil {
		return err
	}
	defer d.lock.shared()
	if err := d.journal.Close(); err != nil && !d.closed {
		return fmt.Errorf("cas: %w", err)
	}
	for _, sub := range []string{"blobs", "journal", "quarantine", "tmp"} {
		if err := os.RemoveAll(d.path(sub)); err != nil {
			return fmt.Errorf("cas: %w", err)
		}
	}
	for _, sub := range []string{"blobs/sha256", "quarantine", "tmp"} {
		if err := os.MkdirAll(d.path(sub), 0o755); err != nil {
			return fmt.Errorf("cas: %w", err)
		}
	}
	f, err := os.OpenFile(d.path("journal"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("cas: journal: %w", err)
	}
	d.journal = f
	d.closed = false
	d.clearRecordsLocked()
	d.report = Report{}
	return nil
}

// writeCompactJournalLocked atomically replaces the journal with exactly the
// surviving records (GC's compaction step). Tags come first (the pins),
// then steps in their recorded order — so replaying the compacted
// journal reconstructs the same recency ranking the budgeted GC evicts
// by. Callers hold d.mu and, when other handles may exist, the
// exclusive store lock.
//
//chlint:allow failpointcover -- compaction runs under the exclusive store lock with builds locked out; crash safety comes from the atomic rename
func (d *Dir) writeCompactJournalLocked() error {
	d.seq++
	tmp := d.path("tmp", fmt.Sprintf("journal-%d", d.seq))
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("cas: %w", err)
	}
	w := bufio.NewWriter(f)
	writeRec := func(rec record) error {
		payload, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		h := sha256.Sum256(payload)
		_, err = fmt.Fprintf(w, "%s %s\n", hex.EncodeToString(h[:]), payload)
		return err
	}
	var werr error
	for _, name := range sortedKeys(d.tags) {
		tg := d.tags[name]
		werr = firstErr(werr, writeRec(record{T: "tag", Tag: &tg}))
	}
	keys := sortedKeys(d.steps)
	sort.Slice(keys, func(i, j int) bool { return d.order[keys[i]] < d.order[keys[j]] })
	for _, key := range keys {
		st := d.steps[key]
		werr = firstErr(werr, writeRec(record{T: "step", Stp: &st}))
	}
	werr = firstErr(werr, w.Flush(), f.Close())
	if werr != nil {
		os.Remove(tmp)
		return fmt.Errorf("cas: compact journal: %w", werr)
	}
	if err := os.Rename(tmp, d.path("journal")); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("cas: compact journal: %w", err)
	}
	// Reopen the append handle on the new file: the old one points at the
	// unlinked inode. If the reopen fails the store must close, not limp:
	// appends to the unlinked handle would "succeed" into a file nothing
	// will ever read back.
	old := d.journal
	nf, err := os.OpenFile(d.path("journal"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		old.Close()
		d.closed = true
		return fmt.Errorf("cas: compact journal: %w", err)
	}
	d.journal = nf
	old.Close()
	d.tornTail = false
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ctxErr reports a done context as a package-prefixed error, nil otherwise
// — the boundary check every context-taking method starts with.
func ctxErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("cas: %w", err)
	}
	return nil
}
