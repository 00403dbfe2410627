// Package image implements layered container images: a content-addressed
// layer store, image metadata, flattening layers onto a simulated
// filesystem, committing filesystem changes as new layers, and an
// in-process HTTP registry speaking a subset of the OCI distribution
// protocol for FROM pulls.
package image

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/cas"
	"repro/internal/flight"
	"repro/internal/tarutil"
	"repro/internal/vfs"
)

// Layer is one content-addressed filesystem diff.
type Layer struct {
	Digest string // "sha256:<hex>"
	Data   []byte // tar bytes
}

// Digest computes the layer digest of data.
//
//chlint:keyroot
func Digest(data []byte) string {
	sum := sha256.Sum256(data)
	return "sha256:" + hex.EncodeToString(sum[:])
}

// Config is the image runtime configuration (a subset of the OCI image
// config).
type Config struct {
	Env        []string          `json:"env,omitempty"`
	Cmd        []string          `json:"cmd,omitempty"`
	Entrypoint []string          `json:"entrypoint,omitempty"`
	WorkingDir string            `json:"working_dir,omitempty"`
	User       string            `json:"user,omitempty"`
	Labels     map[string]string `json:"labels,omitempty"`
	Arch       string            `json:"arch,omitempty"`
}

// Distro returns the distribution label ("alpine", "centos7", "debian"),
// which decides the toolchain (binaries) the builder attaches.
func (c Config) Distro() string { return c.Labels["org.repro.distro"] }

// Image is a named, layered image.
type Image struct {
	Name   string // "alpine:3.19"
	Layers []Layer
	Config Config

	// seed is the entry list FromEntries packed into Layers, valid only
	// while ChainDigest(Layers) still equals seedKey. PutContext hands it
	// to the store's chain cache; see FromEntries.
	seed    []tarutil.Entry
	seedKey string
}

// Clone returns a deep-enough copy for derivation (layers are immutable).
// The copy carries no FromEntries seed: a store fills its chain from the
// layers.
func (img *Image) Clone(name string) *Image {
	out := &Image{Name: name, Config: img.Config}
	out.Layers = append([]Layer{}, img.Layers...)
	if img.Config.Labels != nil {
		out.Config.Labels = map[string]string{}
		for k, v := range img.Config.Labels {
			out.Config.Labels[k] = v
		}
	}
	out.Config.Env = append([]string{}, img.Config.Env...)
	return out
}

// Flatten unpacks all layers, in order, onto a fresh filesystem — the
// privileged (image-store) path, so recorded ownership is preserved
// exactly.
func (img *Image) Flatten() (*vfs.FS, error) {
	fs := vfs.New()
	for i, l := range img.Layers {
		if err := tarutil.Unpack(fs, l.Data); err != nil {
			return nil, fmt.Errorf("image %s: layer %d: %w", img.Name, i, err)
		}
	}
	return fs, nil
}

// ChainDigest identifies a layer chain: the digest of the ordered layer
// digests. Two images with equal chain digests flatten identically.
//
//chlint:keyroot
func ChainDigest(layers []Layer) string {
	var b strings.Builder
	for _, l := range layers {
		b.WriteString(l.Digest)
		b.WriteByte('\n')
	}
	return Digest([]byte(b.String()))
}

// Store is a tag→image map plus a content-addressed blob store, the
// ch-image storage-directory analog. It also memoises flattened layer
// chains: layers are immutable and content-addressed, so a chain unpacks
// to the same tree forever and the unpacking work is paid once per chain,
// not once per build.
type Store struct {
	mu     sync.RWMutex
	images map[string]*Image
	blobs  map[string][]byte

	// chains memoises flattened layer chains by chain digest. Fills are
	// single-flight: concurrent misses on one chain unpack+snapshot once.
	// A chain PutContext seeded from FromEntries holds its entries alone;
	// its first Flatten builds the tree under the same single-flight,
	// which is not a fill.
	chains  map[string]flatChain
	flights flight.Group[flatChain]
	fills   int // completed fills (unpack+snapshot paid), for tests and stats
	trees   int // seeded chains' trees built (unpack only), for tests

	// resolving holds the in-progress Resolve fills, by tag.
	resolving flight.Group[*Image]

	// backing, when set, is the persistent content-addressed store the
	// in-memory maps are a cache over: Put writes through (blobs and tag
	// records), GetContext falls back to it on miss and rehydrates the
	// tag's layers lazily. A backing failure never fails the store —
	// persistence degrades and the errors aggregate in backingErrs.
	backing     *cas.Dir
	backingErrs cas.Failures
}

// flatChain is one memoised layer chain: the pristine flattened tree and
// its snapshot (sorted tarutil entries, parents before children). A
// seeded chain has no tree (fs nil) until its first Flatten.
type flatChain struct {
	fs    *vfs.FS
	lower []tarutil.Entry
}

// NewStore creates an empty store.
func NewStore() *Store {
	return &Store{
		images: map[string]*Image{},
		blobs:  map[string][]byte{},
		chains: map[string]flatChain{},
	}
}

// Flatten returns a filesystem holding img's flattened layers, like
// Image.Flatten, but the unpacked tree for each distinct layer chain is
// built once and cached; callers receive an independent deep clone they
// may mutate freely. A chain's first Flatten fills it: the layers are
// unpacked and the tree snapshotted once, which serves FlattenedEntries.
// A chain seeded from FromEntries already has its entries, so its first
// Flatten only unpacks the stored layer; that is not counted as a fill.
// Either is in-memory work that runs to completion whatever ctx says.
func (s *Store) Flatten(ctx context.Context, img *Image) (*vfs.FS, error) {
	c, err := s.flattened(img, true)
	if err != nil {
		return nil, err
	}
	return c.fs.Clone(), nil
}

// flattened returns the cached chain for img, filling the cache on miss;
// with tree set it also builds a seeded chain's tree. Either is
// single-flight: of N concurrent misses on one chain, exactly one
// goroutine pays the unpack (and, for a fill, the snapshot); the rest
// block until it publishes and then share the result, or its error. A
// failed fill or tree build is not cached — the next caller retries.
//
// Nothing about a chain is persisted: in a fresh process, a FROM of a tag
// an earlier invocation built fills from the layers GetContext has
// already loaded into the store's blobs.
func (s *Store) flattened(img *Image, tree bool) (flatChain, error) {
	key := ChainDigest(img.Layers)
	s.mu.Lock()
	c, seeded := s.chains[key]
	if seeded && (c.fs != nil || !tree) {
		s.mu.Unlock()
		return c, nil
	}
	f, leader := s.flights.Join(key)
	s.mu.Unlock()
	if !leader {
		return f.Wait()
	}

	fs, err := s.flattenPristine(img)
	if err == nil && !seeded {
		c.lower, err = tarutil.Snapshot(fs)
	}
	s.mu.Lock()
	if err == nil {
		c.fs = fs
		s.chains[key] = c
		if seeded {
			s.trees++
		} else {
			s.fills++
			mFlattenFills.Inc()
		}
	}
	s.flights.Finish(key, c, err)
	s.mu.Unlock()
	return c, err
}

// flattenPristine is Image.Flatten reading each layer from the store's
// write-once blobs when registered there (falling back to the Image's own
// bytes for unregistered layers). The cache under a ChainDigest must hold
// the tree those digests name; an Image whose Data a caller scribbled on
// after Put cannot poison it.
func (s *Store) flattenPristine(img *Image) (*vfs.FS, error) {
	fs := vfs.New()
	for i, l := range img.Layers {
		data, ok := s.blobView(l.Digest)
		if !ok {
			data = l.Data
		}
		if err := tarutil.Unpack(fs, data); err != nil {
			return nil, fmt.Errorf("image %s: layer %d: %w", img.Name, i, err)
		}
	}
	return fs, nil
}

// FlattenedEntries returns the canonical serialised snapshot (sorted
// tarutil entries, parents before children) of img's flattened tree, from
// the same per-chain memoisation Flatten uses — so reading a built stage's
// tree for COPY --from costs no re-walk once any consumer has flattened
// the chain. A chain seeded from FromEntries answers from its entries
// without building a tree, so a COPY --from that reads a stock base pays
// no unpack. The returned slice and everything it references
// are shared across callers and must be treated as read-only; copy
// Entry.Data before retaining or mutating it.
func (s *Store) FlattenedEntries(ctx context.Context, img *Image) ([]tarutil.Entry, error) {
	c, err := s.flattened(img, false)
	return c.lower, err
}

// FlattenFills reports how many flatten-cache fills have completed — under
// correct single-flight behaviour, one per distinct layer chain however
// many builders raced on it.
func (s *Store) FlattenFills() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.fills
}

// SetBacking attaches a persistent content-addressed store: subsequent
// Puts write through (layer blobs, tag records) and GetContext falls back
// to it, so tags and their layers survive the process and the next
// invocation starts warm. Images Put earlier are not retroactively
// persisted. Persistence errors never fail store operations; they are
// recorded and readable via BackingErrs.
func (s *Store) SetBacking(d *cas.Dir) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.backing = d
}

// Backing returns the attached persistent store, nil when in-memory only.
func (s *Store) Backing() *cas.Dir {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.backing
}

// BackingErrs returns every persistence failure since the backing was
// attached (a copy), plus a trailing summary entry when failures past the
// cap were dropped; empty when every write-through landed. A failure
// means the on-disk cache is colder than memory, never that it is wrong.
func (s *Store) BackingErrs() []error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.backingErrs.List()
}

// GCBacking runs a garbage collection on the attached persistent store,
// a no-op when the store is in-memory only. Failures (cas.ErrBusy from
// another process holding the store, sweep I/O errors) are recorded the
// same way write-through failures are: the cache ends up colder than
// asked for, never wrong.
func (s *Store) GCBacking(ctx context.Context, b cas.Budget) (cas.GCStats, error) {
	backing := s.Backing()
	if backing == nil {
		return cas.GCStats{}, nil
	}
	stats, err := backing.GC(ctx, b)
	s.mu.Lock()
	s.backingErrs.Add(err)
	s.mu.Unlock()
	return stats, err
}

// Put tags an image, registering its layer blobs. Blob bytes are copied
// on the way in and write-once thereafter: the store is content-addressed,
// so the first bytes recorded under a digest are the bytes that digest
// names, however callers later treat the Image they handed over. With a
// backing store attached, the blobs and the tag record write through to
// disk. Outside tests only the repository benchmark (_imagebench), which
// puts its own base images, still calls it; everything else goes through
// PutContext or Resolve.
func (s *Store) Put(img *Image) {
	//chlint:allow ctxfirst -- context-free compat wrapper; PutContext is the real entry point
	s.PutContext(context.Background(), img)
}

// PutContext is Put under a context: cancellation aborts the
// write-through (recorded as a persistence failure), never the in-memory
// tag, which is already visible when the disk write starts. An image
// FromEntries made, with its Layers as FromEntries left them, also hands
// over its entries: the chain is cached without an unpack, is not
// counted as a fill, and builds its tree at its first Flatten.
func (s *Store) PutContext(ctx context.Context, img *Image) {
	seeded := img.seedKey != "" && ChainDigest(img.Layers) == img.seedKey
	s.mu.Lock()
	if seeded {
		if _, ok := s.chains[img.seedKey]; !ok {
			s.chains[img.seedKey] = flatChain{lower: img.seed}
		}
	}
	layers := make([]cas.Layer, len(img.Layers))
	for i, l := range img.Layers {
		if _, ok := s.blobs[l.Digest]; !ok {
			s.blobs[l.Digest] = append([]byte(nil), l.Data...)
		}
		// Persist the store's pristine copy, not the caller's mutable
		// slice. Blobs are write-once, so reading the map entry here and
		// using it after unlock is safe.
		layers[i] = cas.Layer{Digest: l.Digest, Data: s.blobs[l.Digest]}
	}
	s.images[img.Name] = img
	backing := s.backing
	s.mu.Unlock()
	if backing == nil {
		return
	}
	// Write-through runs outside s.mu: disk writes must not stall the
	// store's readers. (Two concurrent Puts of the same tag may journal
	// in either order; both orders are internally consistent.) PutTag
	// writes only the blobs the Dir lacks, then the tag; the call is
	// idempotent — write-once blobs, same-tag skip — so transient
	// failures retry it whole.
	cfg, err := json.Marshal(img.Config)
	if err == nil {
		err = cas.DefaultRetry.Do(ctx, func() error {
			return backing.PutTag(ctx, img.Name, layers, cfg)
		})
	}
	s.mu.Lock()
	s.backingErrs.Add(err)
	s.mu.Unlock()
}

// Resolve returns the image tagged name from memory. On a miss it calls
// fill once, however many callers miss on name together, and puts the
// image fill returns, which must be named name, through PutContext; the
// other callers wait and share it, or fill's error. A failed fill is not
// kept: the next miss calls fill again. Resolve never reads the backing,
// so a tag an older binary persisted under name cannot stand in for
// fill's image. The builder resolves stock base images through it.
func (s *Store) Resolve(ctx context.Context, name string, fill func() (*Image, error)) (*Image, error) {
	// A hit takes only the read lock, as GetContext's does: every build
	// of a daemon's shared store looks its base up here.
	s.mu.RLock()
	img, ok := s.images[name]
	s.mu.RUnlock()
	if ok {
		return img, nil
	}
	s.mu.Lock()
	if img, ok := s.images[name]; ok {
		s.mu.Unlock()
		return img, nil
	}
	f, leader := s.resolving.Join(name)
	s.mu.Unlock()
	if !leader {
		return f.Wait()
	}
	img, err := fill()
	if err == nil {
		s.PutContext(ctx, img)
	}
	s.mu.Lock()
	s.resolving.Finish(name, img, err)
	s.mu.Unlock()
	return img, err
}

// GetContext resolves a tag, falling back to the backing store: a tag
// persisted by an earlier invocation is rehydrated (layers loaded and
// digest-verified) on first access and cached in memory from then on.
// Cancellation aborts a backing-store rehydration and reports a miss
// (callers on a cancelled context are about to fail at their own
// boundary check anyway).
func (s *Store) GetContext(ctx context.Context, name string) (*Image, bool) {
	s.mu.RLock()
	img, ok := s.images[name]
	backing := s.backing
	s.mu.RUnlock()
	if ok || backing == nil {
		return img, ok
	}
	tg, found := backing.Tag(name)
	if !found {
		return nil, false
	}
	loaded := &Image{Name: name, Layers: make([]Layer, 0, len(tg.Layers))}
	if len(tg.Config) > 0 {
		if err := json.Unmarshal(tg.Config, &loaded.Config); err != nil {
			return nil, false
		}
	}
	for _, digest := range tg.Layers {
		// Blob digest-verifies on the way out and quarantines mismatches,
		// so an error here means the tag is cold, never that bad bytes
		// got through.
		var data []byte
		err := cas.DefaultRetry.Do(ctx, func() error {
			var rerr error
			data, rerr = backing.Blob(ctx, digest)
			return rerr
		})
		if err != nil {
			return nil, false
		}
		loaded.Layers = append(loaded.Layers, Layer{Digest: digest, Data: data})
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if cur, ok := s.images[name]; ok {
		return cur, true // raced with a concurrent Put/GetContext; keep the winner
	}
	for _, l := range loaded.Layers {
		if _, ok := s.blobs[l.Digest]; !ok {
			// Copied, like Put: the caller owns the Image and may scribble
			// on its slices; the pristine-blob invariant must hold anyway.
			s.blobs[l.Digest] = append([]byte(nil), l.Data...)
		}
	}
	s.images[name] = loaded
	return loaded, true
}

// Blob fetches a blob by digest. The returned slice is the caller's to
// keep: it is a copy, so mutating it cannot corrupt the store.
func (s *Store) Blob(digest string) ([]byte, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b, ok := s.blobs[digest]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), b...), true
}

// putBlob stores one content-addressed blob (the registry's PUT side).
// The bytes are copied in, like Put.
func (s *Store) putBlob(digest string, data []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.blobs[digest]; ok {
		return
	}
	s.blobs[digest] = append([]byte(nil), data...)
}

// blobView returns the store's own slice without copying — the registry's
// hot serve path, where the bytes are only streamed to a ResponseWriter.
// Blobs are write-once, so sharing the slice internally is safe; anything
// that might outlive or mutate goes through Blob.
func (s *Store) blobView(digest string) ([]byte, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b, ok := s.blobs[digest]
	return b, ok
}

// hasBlob reports blob presence without copying.
func (s *Store) hasBlob(digest string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.blobs[digest]
	return ok
}

// Tags lists image names, sorted.
func (s *Store) Tags() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.images))
	for n := range s.images {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// FromEntries builds a single-layer image by packing entries, which must
// be a whole tree in canonical order (see tarutil.PathLess): every entry's
// parent directory listed before it, no whiteouts, no sockets — the
// entries Snapshot returns for the tree the layer unpacks to. The image
// keeps entries as its seed, and the first store it is Put into takes
// them as the layer's flattened chain, so FlattenedEntries needs no tree
// and the first Flatten only unpacks the layer. The store shares entries
// with its readers: the caller must not mutate them after the call.
func FromEntries(name string, entries []tarutil.Entry, cfg Config) (*Image, error) {
	data, err := tarutil.Pack(entries)
	if err != nil {
		return nil, err
	}
	layers := []Layer{{Digest: Digest(data), Data: data}}
	return &Image{
		Name:    name,
		Layers:  layers,
		Config:  cfg,
		seed:    entries,
		seedKey: ChainDigest(layers),
	}, nil
}

// SplitRef splits "name:tag" with a default "latest" tag.
func SplitRef(ref string) (name, tag string) {
	if i := strings.LastIndexByte(ref, ':'); i >= 0 && !strings.Contains(ref[i+1:], "/") {
		return ref[:i], ref[i+1:]
	}
	return ref, "latest"
}
