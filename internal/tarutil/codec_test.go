package tarutil_test

import (
	"archive/tar"
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/pkgmgr"
	"repro/internal/tarutil"
	"repro/internal/vfs"
)

// The codec's oracles: archive/tar is the reference encoder and decoder,
// and lives only here. Pack must write exactly the bytes tar.Writer
// writes for the same members, and Read must decode exactly the members
// tar.Reader decodes.

// oraclePack is the reference encoder: each entry mapped to a tar.Header
// and written through tar.Writer.
func oraclePack(entries []tarutil.Entry) ([]byte, error) {
	var buf bytes.Buffer
	tw := tar.NewWriter(&buf)
	for _, ent := range entries {
		hdr := &tar.Header{
			Name:    strings.TrimPrefix(ent.Path, "/"),
			Mode:    int64(ent.Stat.Mode),
			Uid:     ent.Stat.UID,
			Gid:     ent.Stat.GID,
			ModTime: ent.Stat.Mtime,
		}
		if len(ent.Xattrs) > 0 {
			hdr.PAXRecords = map[string]string{}
			for k, v := range ent.Xattrs {
				hdr.PAXRecords["SCHILY.xattr."+k] = v
			}
		}
		switch ent.Stat.Type {
		case vfs.TypeDir:
			hdr.Typeflag = tar.TypeDir
			hdr.Name += "/"
		case vfs.TypeRegular:
			hdr.Typeflag = tar.TypeReg
			hdr.Size = int64(len(ent.Data))
		case vfs.TypeSymlink:
			hdr.Typeflag = tar.TypeSymlink
			hdr.Linkname = ent.Target
		case vfs.TypeCharDev:
			hdr.Typeflag = tar.TypeChar
			hdr.Devmajor = int64(ent.Stat.Rdev.Major())
			hdr.Devminor = int64(ent.Stat.Rdev.Minor())
		case vfs.TypeBlockDev:
			hdr.Typeflag = tar.TypeBlock
			hdr.Devmajor = int64(ent.Stat.Rdev.Major())
			hdr.Devminor = int64(ent.Stat.Rdev.Minor())
		case vfs.TypeFIFO:
			hdr.Typeflag = tar.TypeFifo
		case vfs.TypeSocket:
			continue
		}
		if err := tw.WriteHeader(hdr); err != nil {
			return nil, err
		}
		if ent.Stat.Type == vfs.TypeRegular {
			if _, err := tw.Write(ent.Data); err != nil {
				return nil, err
			}
		}
	}
	if err := tw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// oracleRead is the reference decoder: tar.Reader, with the member
// mapping Read documents. Like Read, it refuses a member whose size
// exceeds the archive (only a sparse member can claim one) instead of
// materialising it.
func oracleRead(b []byte) ([]tarutil.Entry, error) {
	var out []tarutil.Entry
	tr := tar.NewReader(bytes.NewReader(b))
	for {
		hdr, err := tr.Next()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		switch hdr.Typeflag {
		case tar.TypeLink, tar.TypeSymlink, tar.TypeChar, tar.TypeBlock, tar.TypeDir, tar.TypeFifo:
		default:
			if hdr.Size > int64(len(b)) {
				return nil, fmt.Errorf("%s: size %d exceeds the archive", hdr.Name, hdr.Size)
			}
		}
		data, err := io.ReadAll(tr)
		if err != nil {
			return nil, err
		}
		ent := tarutil.Entry{
			Path: "/" + strings.Trim(hdr.Name, "/"),
			Stat: vfs.Stat{Mode: uint32(hdr.Mode) & 0o7777, UID: hdr.Uid, GID: hdr.Gid, Mtime: hdr.ModTime},
		}
		for k, v := range hdr.PAXRecords {
			if attr, ok := strings.CutPrefix(k, "SCHILY.xattr."); ok {
				if ent.Xattrs == nil {
					ent.Xattrs = map[string]string{}
				}
				ent.Xattrs[attr] = v
			}
		}
		switch hdr.Typeflag {
		case tar.TypeReg:
			ent.Stat.Type, ent.Stat.Size, ent.Data = vfs.TypeRegular, int64(len(data)), data
		case tar.TypeDir:
			ent.Stat.Type = vfs.TypeDir
		case tar.TypeSymlink:
			ent.Stat.Type, ent.Target = vfs.TypeSymlink, hdr.Linkname
		case tar.TypeChar, tar.TypeBlock:
			ent.Stat.Type = vfs.TypeCharDev
			if hdr.Typeflag == tar.TypeBlock {
				ent.Stat.Type = vfs.TypeBlockDev
			}
			ent.Stat.Rdev = vfs.Makedev(uint32(hdr.Devmajor), uint32(hdr.Devminor))
		case tar.TypeFifo:
			ent.Stat.Type = vfs.TypeFIFO
		default:
			return nil, fmt.Errorf("%s: type %q has no entry form", ent.Path, hdr.Typeflag)
		}
		out = append(out, ent)
	}
}

// sameEntries compares decoded entries field by field (nil and empty
// data are equal; times by instant).
func sameEntries(a, b []tarutil.Entry) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d entries vs %d", len(a), len(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		xs, ys := x.Stat, y.Stat
		if !xs.Mtime.Equal(ys.Mtime) {
			return fmt.Errorf("entry %d %s: mtime %v vs %v", i, x.Path, xs.Mtime, ys.Mtime)
		}
		xs.Mtime, ys.Mtime = time.Time{}, time.Time{}
		if x.Path != y.Path || xs != ys || x.Target != y.Target || !bytes.Equal(x.Data, y.Data) ||
			x.Digest != y.Digest || fmt.Sprint(x.Xattrs) != fmt.Sprint(y.Xattrs) {
			return fmt.Errorf("entry %d: %+v vs %+v", i, x, y)
		}
	}
	return nil
}

// entryGen draws entries from the corners of archive/tar's USTAR test:
// long, split and non-ASCII names, numbers just inside and outside their
// octal fields, pre-1970, huge and sub-second mtimes, xattrs, sockets.
type entryGen struct{ rng *rand.Rand }

func (g entryGen) pick(n int) int { return g.rng.Intn(n) }

func (g entryGen) name() string {
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789._-"
	var b strings.Builder
	for i, depth := 0, 1+g.pick(6); i < depth; i++ {
		b.WriteByte('/')
		n := 1 + g.pick(8)
		if g.pick(3) == 0 {
			n = 1 + g.pick(120)
		}
		for j := 0; j < n; j++ {
			b.WriteByte(alphabet[g.pick(len(alphabet))])
		}
	}
	switch g.pick(40) {
	case 0:
		b.WriteString("/café")
	case 1:
		b.WriteString("/nul\x00byte")
	case 2:
		b.WriteString("/") // a trailing slash: archive/tar refuses it on files
	}
	return b.String()
}

func (g entryGen) id() int {
	switch g.pick(12) {
	case 0:
		return 1<<21 - 1
	case 1:
		return 1 << 21
	case 2:
		return 1 << 33
	case 3:
		return -1
	}
	return g.pick(70000)
}

func (g entryGen) mode() uint32 {
	switch g.pick(20) {
	case 0:
		return 1<<21 | 0o644
	case 1:
		return 1 << 31
	}
	return uint32(g.pick(0o10000))
}

func (g entryGen) mtime() time.Time {
	const max = 1<<33 - 1 // the largest USTAR mtime
	switch g.pick(10) {
	case 0:
		return time.Time{}
	case 1:
		return time.Time{}.Add(time.Duration(g.pick(1000)) * time.Millisecond)
	case 2:
		return time.Unix(-int64(g.pick(1<<30))-1, int64(g.pick(1e9)))
	case 3:
		return time.Unix(max-int64(g.pick(2)), int64(499999999+g.pick(2)))
	case 4:
		return time.Unix(max+1+int64(g.pick(1<<20)), 0)
	case 5:
		return time.Unix(int64(g.pick(1<<31)), int64(g.pick(1e9)))
	}
	return time.Unix(int64(g.pick(1<<31)), 0)
}

func (g entryGen) dev() vfs.Dev {
	pick := func() uint32 {
		switch g.pick(8) {
		case 0:
			return 1<<21 - 1
		case 1:
			return 1 << 21
		case 2:
			return 1<<32 - 1
		}
		return uint32(g.pick(256))
	}
	return vfs.Makedev(pick(), pick())
}

func (g entryGen) entry() tarutil.Entry {
	types := []vfs.FileType{vfs.TypeRegular, vfs.TypeRegular, vfs.TypeRegular, vfs.TypeDir,
		vfs.TypeSymlink, vfs.TypeCharDev, vfs.TypeBlockDev, vfs.TypeFIFO, vfs.TypeSocket, vfs.FileType(42)}
	e := tarutil.Entry{
		Path: g.name(),
		Stat: vfs.Stat{Type: types[g.pick(len(types))], Mode: g.mode(), UID: g.id(), GID: g.id(), Mtime: g.mtime()},
	}
	switch e.Stat.Type {
	case vfs.TypeRegular:
		e.Data = make([]byte, g.pick(1500))
		g.rng.Read(e.Data)
	case vfs.TypeSymlink:
		e.Target = g.name()[1:]
	case vfs.TypeCharDev, vfs.TypeBlockDev:
		e.Stat.Rdev = g.dev()
	}
	if g.pick(15) == 0 {
		e.Xattrs = map[string]string{"user.k": "v"}
		if g.pick(2) == 0 {
			e.Xattrs["security.capability"] = "\x01\x00"
		}
	}
	return e
}

func (g entryGen) entries() []tarutil.Entry {
	out := make([]tarutil.Entry, 1+g.pick(6))
	for i := range out {
		out[i] = g.entry()
	}
	return out
}

func TestPackMatchesArchiveTar(t *testing.T) {
	g := entryGen{rand.New(rand.NewSource(1))}
	sets := 20000
	if testing.Short() {
		sets = 2000
	}
	var plain, extended, failed int
	for i := 0; i < sets; i++ {
		ents := g.entries()
		got, gerr := tarutil.Pack(ents)
		want, werr := oraclePack(ents)
		if (gerr != nil) != (werr != nil) {
			t.Fatalf("set %d: Pack error %v, archive/tar error %v\n%+v", i, gerr, werr, ents)
		}
		if werr != nil {
			failed++
			continue
		}
		if !bytes.Equal(got, want) {
			off := 0
			for off < len(got) && off < len(want) && got[off] == want[off] {
				off++
			}
			t.Fatalf("set %d: Pack differs from archive/tar at byte %d (lengths %d, %d)\n%+v",
				i, off, len(got), len(want), ents)
		}
		if bytes.Contains(want, []byte("PaxHeaders.0")) || bytes.Contains(want, []byte("ustar  \x00")) {
			extended++
		} else {
			plain++
		}
	}
	// The generator must reach all three outcomes, or the test proves little.
	if plain == 0 || extended == 0 || failed == 0 {
		t.Fatalf("coverage: %d plain USTAR sets, %d with PAX/GNU members, %d refused", plain, extended, failed)
	}
}

func TestUnpackDoesNotAliasLayer(t *testing.T) {
	src := vfs.New()
	rc := vfs.RootContext()
	src.MkdirAll(rc, "/etc", 0o755, 0, 0)
	src.WriteFile(rc, "/etc/a", []byte("alpha"), 0o644, 0, 0)
	src.WriteFile(rc, "/etc/b", bytes.Repeat([]byte("b"), 700), 0o644, 0, 0)
	ents, err := tarutil.Snapshot(src)
	if err != nil {
		t.Fatal(err)
	}
	layer, err := tarutil.Pack(ents)
	if err != nil {
		t.Fatal(err)
	}
	before := sha256.Sum256(layer)

	dst := vfs.New()
	if err := tarutil.Unpack(dst, layer); err != nil {
		t.Fatal(err)
	}
	// Mutate the unpacked files in place (through the shared walk view)
	// and by appending, which reuses spare capacity.
	if _, err := dst.WalkSince(0, func(n *vfs.Node) error {
		for i := range n.Data {
			n.Data[i] ^= 0xff
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	dst.AppendFile(rc, "/etc/a", []byte("-appended"), 0o644, 0, 0)
	if after := sha256.Sum256(layer); after != before {
		t.Fatal("mutating an unpacked file changed the source layer")
	}
}

func TestReadDataCannotOverwriteArchive(t *testing.T) {
	layer, err := tarutil.Pack([]tarutil.Entry{
		{Path: "/a", Stat: vfs.Stat{Type: vfs.TypeRegular, Mode: 0o644}, Data: []byte("first")},
		{Path: "/b", Stat: vfs.Stat{Type: vfs.TypeRegular, Mode: 0o644}, Data: []byte("second")},
	})
	if err != nil {
		t.Fatal(err)
	}
	before := sha256.Sum256(layer)
	ents, err := tarutil.Read(layer)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		_ = append(e.Data, bytes.Repeat([]byte{'!'}, 600)...)
	}
	if after := sha256.Sum256(layer); after != before {
		t.Fatal("appending to a read entry's data overwrote the archive")
	}
}

// readSeeds is FuzzRead's seed corpus: real layers and package blobs,
// PAX and GNU members, and truncated and bit-flipped archives.
func readSeeds(t testing.TB) [][]byte {
	var seeds [][]byte
	world := pkgmgr.NewWorld()
	var alpine []byte
	for _, b := range []struct{ distro, name string }{
		{pkgmgr.DistroAlpine, "alpine:3.19"},
		{pkgmgr.DistroCentOS7, "centos:7"},
		{pkgmgr.DistroDebian, "debian:12"},
	} {
		img, err := world.BaseImage(b.distro, b.name)
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, img.Layers[0].Data)
		if alpine == nil {
			alpine = img.Layers[0].Data
		}
	}
	for _, repo := range []*pkgmgr.Repo{world.Alpine, world.Debian} {
		for _, name := range repo.Names() {
			blob, _ := repo.Fetch(name)
			seeds = append(seeds, blob)
		}
	}
	// A commit-sized layer with a whiteout, a name USTAR splits into
	// prefix and name, and members only PAX or GNU can carry.
	withExt, err := tarutil.Pack([]tarutil.Entry{
		{Path: "/srv/app.txt", Stat: vfs.Stat{Type: vfs.TypeRegular, Mode: 0o644}, Data: []byte("app")},
		{Path: "/srv/.wh.old", Stat: vfs.Stat{Type: vfs.TypeRegular}},
		{Path: "/bin/ping", Stat: vfs.Stat{Type: vfs.TypeRegular, Mode: 0o755}, Data: []byte("ELF"),
			Xattrs: map[string]string{"security.capability": "\x01"}},
		{Path: "/" + strings.Repeat("split/", 20) + "name", Stat: vfs.Stat{Type: vfs.TypeRegular, Mode: 0o644}},
		{Path: "/" + strings.Repeat("long/", 60) + "name", Stat: vfs.Stat{Type: vfs.TypeDir, Mode: 0o755}},
		{Path: "/dev/big", Stat: vfs.Stat{Type: vfs.TypeCharDev, Rdev: vfs.Makedev(1<<22, 1)}},
		{Path: "/home/u", Stat: vfs.Stat{Type: vfs.TypeDir, UID: 1 << 22, Mtime: time.Unix(-5, 250)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	seeds = append(seeds, withExt)
	// Hand-edited headers, each with its checksum fixed up: a checksum
	// summed over signed bytes, as some old writers did; a directory
	// whose size field is not zero; a mode that is not octal; a split
	// name under the star(1) trailer, which moves the prefix field, and
	// without the USTAR magic, which drops it.
	split, err := tarutil.Pack([]tarutil.Entry{{Path: "/" + strings.Repeat("p", 140) + "/file",
		Stat: vfs.Stat{Type: vfs.TypeRegular, Mode: 0o644}, Data: []byte("x")}})
	if err != nil {
		t.Fatal(err)
	}
	seeds = append(seeds,
		patched(withExt, true, func(blk []byte) { blk[265] = 0xe9 }),
		patched(alpine, false, func(blk []byte) { copy(blk[124:], "00000000005\x00") }),
		patched(alpine, false, func(blk []byte) { copy(blk[100:], "0000649\x00") }),
		patched(split, false, func(blk []byte) { copy(blk[508:], "tar\x00") }),
		patched(split, false, func(blk []byte) { copy(blk[257:], make([]byte, 8)) }))
	var gnu bytes.Buffer
	tw := tar.NewWriter(&gnu)
	for _, h := range []*tar.Header{
		{Name: strings.Repeat("g", 150), Typeflag: tar.TypeReg, Size: 2, Format: tar.FormatGNU},
		{Name: "hard", Linkname: strings.Repeat("g", 150), Typeflag: tar.TypeLink, Format: tar.FormatGNU},
		{Name: "global", Typeflag: tar.TypeXGlobalHeader, PAXRecords: map[string]string{"comment": "x"}},
		{Name: "gnu-times", Typeflag: tar.TypeDir, Format: tar.FormatGNU, AccessTime: time.Unix(1234, 0)},
	} {
		if err := tw.WriteHeader(h); err != nil {
			t.Fatal(err)
		}
		tw.Write([]byte("hi")[:h.Size])
	}
	tw.Close()
	seeds = append(seeds, gnu.Bytes())
	for _, cut := range []int{0, 100, 511, 512, 513, 700, 1024, len(alpine) - 1024, len(alpine) - 1} {
		seeds = append(seeds, alpine[:cut])
	}
	for _, off := range []int{0, 100, 124, 148, 156, 257, 345, 508, 512 + 3} {
		flipped := append([]byte(nil), alpine...)
		flipped[off] ^= 0x80
		seeds = append(seeds, flipped)
	}
	return seeds
}

// patched copies archive with edit applied to its first header block and
// the block's checksum recomputed, over signed bytes if signed.
func patched(archive []byte, signed bool, edit func(blk []byte)) []byte {
	out := append([]byte(nil), archive...)
	blk := out[:512]
	edit(blk)
	var sum int64
	for i, c := range blk {
		switch {
		case i >= 148 && i < 156:
			sum += ' '
		case signed:
			sum += int64(int8(c))
		default:
			sum += int64(c)
		}
	}
	copy(blk[148:], fmt.Sprintf("%06o\x00 ", sum))
	return out
}

func FuzzRead(f *testing.F) {
	for _, seed := range readSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		got, gerr := tarutil.Read(b)
		want, werr := oracleRead(b)
		if (gerr != nil) != (werr != nil) {
			t.Fatalf("Read error %v, archive/tar error %v", gerr, werr)
		}
		if err := sameEntries(got, want); err != nil {
			t.Fatalf("Read differs from archive/tar: %v", err)
		}
	})
}
