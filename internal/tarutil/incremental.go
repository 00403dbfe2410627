// Incremental layer commits. A Snapshotter remembers a filesystem's
// serialised state (metadata + content digests, not bytes) together with
// the vfs generation it was observed at; Advance then answers "what
// changed since the last commit" by walking only dirty subtrees, so the
// builder's per-instruction commit costs O(changes) instead of O(tree).
// Snapshot+Diff remain as the full-walk reference implementation; the
// property tests assert the two pipelines produce byte-identical layers.
package tarutil

import (
	"fmt"
	"sort"

	"repro/internal/vfs"
)

// Snapshotter tracks one filesystem's committed state across layer
// commits.
type Snapshotter struct {
	gen     uint64
	entries map[string]Entry           // by path; Data dropped, Digest kept
	kids    map[string]map[string]bool // dir path -> current child names
}

// NewSnapshotter captures fs's current state with one full walk. Later
// Advance calls are incremental.
func NewSnapshotter(fs *vfs.FS) (*Snapshotter, error) {
	s := &Snapshotter{
		entries: make(map[string]Entry),
		kids:    make(map[string]map[string]bool),
	}
	gen, err := fs.WalkSince(0, func(n *vfs.Node) error {
		s.absorb(n)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("tarutil: snapshot: %w", err)
	}
	s.gen = gen
	return s, nil
}

// absorb records a walked node in the tracked state.
func (s *Snapshotter) absorb(n *vfs.Node) {
	if n.Stat.Type == vfs.TypeDir {
		ks := make(map[string]bool, len(n.Children))
		for _, c := range n.Children {
			ks[c] = true
		}
		s.kids[n.Path] = ks
	}
	if n.Path == "/" {
		return
	}
	ent := entryFromNode(n, false)
	ent.Data = nil // state compares by digest; bytes live in the FS
	s.entries[n.Path] = ent
}

// Len returns the number of tracked entries (excluding the root).
func (s *Snapshotter) Len() int { return len(s.entries) }

// Advance observes every change made to fs since the previous Advance (or
// construction) and returns the layer diff: changed and added entries plus
// one whiteout per topmost deleted path, in canonical order — exactly what
// Diff(prev, Snapshot(fs)) would return, at O(changes) cost. The tracked
// state is updated to fs's current contents.
func (s *Snapshotter) Advance(fs *vfs.FS) ([]Entry, error) {
	type dirtyDir struct {
		path string
		kids map[string]bool
	}
	var out []Entry
	var dirs []dirtyDir
	gen, err := fs.WalkSince(s.gen, func(n *vfs.Node) error {
		if n.Stat.Type == vfs.TypeDir {
			ks := make(map[string]bool, len(n.Children))
			for _, c := range n.Children {
				ks[c] = true
			}
			dirs = append(dirs, dirtyDir{n.Path, ks})
		}
		if n.Path == "/" {
			return nil
		}
		ent := entryFromNode(n, false)
		old, existed := s.entries[n.Path]
		if !existed || !sameEntry(old, ent) {
			ent.Data = append([]byte(nil), n.Data...) // escapes into the layer
			out = append(out, ent)
		}
		// A directory replaced by a non-directory keeps its old subtree in
		// prev but not in any dirty directory listing: drop it here and
		// whiteout the orphans, as the reference Diff does.
		if existed && old.Stat.Type == vfs.TypeDir && ent.Stat.Type != vfs.TypeDir {
			for name := range s.kids[n.Path] {
				child := joinChild(n.Path, name)
				s.removeTree(child)
				out = append(out, whiteoutFor(child))
			}
			delete(s.kids, n.Path)
		}
		state := ent
		state.Data = nil
		s.entries[n.Path] = state
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("tarutil: incremental snapshot: %w", err)
	}
	s.gen = gen

	// Deletions: a dirty directory whose previous child set lost names.
	// Only the topmost deleted path gets a whiteout; removeTree forgets
	// the rest.
	for _, d := range dirs {
		prev := s.kids[d.path]
		for name := range prev {
			if !d.kids[name] {
				child := joinChild(d.path, name)
				s.removeTree(child)
				out = append(out, whiteoutFor(child))
			}
		}
		s.kids[d.path] = d.kids
	}
	sort.Slice(out, func(i, j int) bool { return PathLess(out[i].Path, out[j].Path) })
	return out, nil
}

// removeTree forgets p and everything under it.
func (s *Snapshotter) removeTree(p string) {
	delete(s.entries, p)
	for name := range s.kids[p] {
		s.removeTree(joinChild(p, name))
	}
	delete(s.kids, p)
}

func joinChild(dir, name string) string {
	if dir == "/" {
		return "/" + name
	}
	return dir + "/" + name
}

// ApplyLayer unpacks a packed layer onto fs and folds the resulting
// changes into the tracked state — the cached-layer replay path, which
// previously re-walked the whole tree after applying an already-known
// diff. Unpack dirties exactly the nodes it touches, so the reconciliation
// is an Advance whose diff is discarded: O(layer), no divergence risk.
func (s *Snapshotter) ApplyLayer(fs *vfs.FS, layer []byte) error {
	if err := Unpack(fs, layer); err != nil {
		return err
	}
	_, err := s.Advance(fs)
	return err
}
