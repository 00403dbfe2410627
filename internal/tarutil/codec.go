package tarutil

import (
	"archive/tar"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"
)

// The tar codec. Every member this package writes or reads is one USTAR
// block (plus its padded body) in the common case, and the encoder and
// decoder below handle that block directly. A member USTAR cannot carry —
// xattrs, long or non-ASCII names, out-of-range numbers — is handed to
// archive/tar for that one member, so the bytes written and the members
// read are exactly archive/tar's.

const blockSize = 512

// USTAR header fields: offset and length within the block.
type field struct{ off, len int }

var (
	fName     = field{0, 100}
	fMode     = field{100, 8}
	fUID      = field{108, 8}
	fGID      = field{116, 8}
	fSize     = field{124, 12}
	fMtime    = field{136, 12}
	fChksum   = field{148, 8}
	fLinkname = field{157, 100}
	fDevMajor = field{329, 8}
	fDevMinor = field{337, 8}
	fPrefix   = field{345, 155}
)

const (
	offTypeflag = 156
	magicUSTAR  = "ustar\x0000" // magic "ustar\x00" and version "00"
	offMagic    = 257
	offTrailer  = 508 // star(1) puts "tar\x00" here; archive/tar then reads another prefix layout
)

// header is the tar-level view of one member, shared by the encoder and
// the decoder.
type header struct {
	name     string // as stored: no leading slash, directories end in "/"
	linkname string
	typeflag byte
	mode     int64
	uid, gid int
	mtime    time.Time
	devmajor int64
	devminor int64
	xattrs   map[string]string
	body     []byte // regular-file contents; the size field is its length
}

// headerOnly reports whether members of type flag carry no body.
func headerOnly(flag byte) bool {
	switch flag {
	case tar.TypeLink, tar.TypeSymlink, tar.TypeChar, tar.TypeBlock, tar.TypeDir, tar.TypeFifo:
		return true
	}
	return false
}

// appendMember appends one member — header block, body, padding — to dst.
// A member passes as one USTAR block under the test tar.Writer applies
// before choosing USTAR; any other goes through appendTar.
func appendMember(dst []byte, h *header) ([]byte, error) {
	var secs int64
	if mtime := h.mtime.Round(time.Second); !mtime.IsZero() { // as tar.Writer.WriteHeader rounds
		secs = mtime.Unix()
	}
	prefix, name, ok := ustarName(h.name)
	if !ok || !ustarType(h) || len(h.xattrs) > 0 ||
		!isASCII(h.linkname) || len(h.linkname) > fLinkname.len ||
		!fitsOctal(fMode, h.mode) || !fitsOctal(fUID, int64(h.uid)) || !fitsOctal(fGID, int64(h.gid)) ||
		!fitsOctal(fSize, int64(len(h.body))) || !fitsOctal(fMtime, secs) ||
		!fitsOctal(fDevMajor, h.devmajor) || !fitsOctal(fDevMinor, h.devminor) {
		return appendTar(dst, h)
	}
	dst = append(dst, zeroBlock[:]...)
	blk := dst[len(dst)-blockSize:]
	copy(blk[fName.off:], name)
	copy(blk[fLinkname.off:], h.linkname)
	copy(blk[fPrefix.off:], prefix)
	putOctal(blk, fMode, h.mode)
	putOctal(blk, fUID, int64(h.uid))
	putOctal(blk, fGID, int64(h.gid))
	putOctal(blk, fSize, int64(len(h.body)))
	putOctal(blk, fMtime, secs)
	putOctal(blk, fDevMajor, h.devmajor)
	putOctal(blk, fDevMinor, h.devminor)
	blk[offTypeflag] = h.typeflag
	copy(blk[offMagic:], magicUSTAR)
	// The checksum field is six octal digits, a NUL and a space.
	putOctal(blk, field{fChksum.off, fChksum.len - 1}, checksum(blk))
	blk[fChksum.off+fChksum.len-1] = ' '
	if headerOnly(h.typeflag) {
		return dst, nil
	}
	dst = append(dst, h.body...)
	return append(dst, zeroBlock[:padding(len(h.body))]...), nil
}

// ustarType reports whether h's type is one the USTAR block carries as
// is: archive/tar promotes an unknown type and rejects a file name with
// a trailing slash, so both go through it.
func ustarType(h *header) bool {
	switch h.typeflag {
	case tar.TypeDir, tar.TypeSymlink, tar.TypeLink:
		return true
	case tar.TypeReg, tar.TypeChar, tar.TypeBlock, tar.TypeFifo:
		return !strings.HasSuffix(h.name, "/")
	}
	return false
}

// ustarName splits name into the USTAR prefix and name fields by
// archive/tar's rules: ASCII only, and either at most 100 bytes or
// split at a slash into a prefix of at most 155 bytes and a non-empty
// name of at most 100.
func ustarName(name string) (prefix, base string, ok bool) {
	if !isASCII(name) {
		return "", "", false
	}
	if len(name) <= fName.len {
		return "", name, true
	}
	// The split slash must fall within the first 156 bytes, so the
	// prefix before it fits its field.
	n := len(name)
	if n > fPrefix.len+1 {
		n = fPrefix.len + 1
	} else if name[n-1] == '/' {
		n--
	}
	i := strings.LastIndexByte(name[:n], '/')
	if i <= 0 || len(name)-i-1 == 0 || len(name)-i-1 > fName.len {
		return "", "", false
	}
	return name[:i], name[i+1:], true
}

// appendTar appends one member through archive/tar: the encoding for
// every member the USTAR block cannot represent.
func appendTar(dst []byte, h *header) ([]byte, error) {
	th := &tar.Header{
		Name:     h.name,
		Linkname: h.linkname,
		Typeflag: h.typeflag,
		Mode:     h.mode,
		Uid:      h.uid,
		Gid:      h.gid,
		Size:     int64(len(h.body)),
		ModTime:  h.mtime,
		Devmajor: h.devmajor,
		Devminor: h.devminor,
	}
	if len(h.xattrs) > 0 {
		th.PAXRecords = make(map[string]string, len(h.xattrs))
		for k, v := range h.xattrs {
			th.PAXRecords["SCHILY.xattr."+k] = v
		}
	}
	buf := bytes.NewBuffer(dst)
	tw := tar.NewWriter(buf)
	if err := tw.WriteHeader(th); err != nil {
		return nil, fmt.Errorf("header: %w", err)
	}
	if _, err := tw.Write(h.body); err != nil {
		return nil, fmt.Errorf("body: %w", err)
	}
	if err := tw.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// reader walks the members of an in-memory tar archive.
type reader struct {
	b   []byte
	off int
}

// next decodes the member at r.off into h and advances past it. It reports
// false at the end of the archive. A regular file's h.body aliases the
// archive, capped so that appending to it cannot overwrite what follows.
func (r *reader) next(h *header) (bool, error) {
	if r.off >= len(r.b) {
		return false, nil
	}
	if r.nextUSTAR(h) {
		return true, nil
	}
	return r.nextTar(h)
}

// nextUSTAR decodes a plain USTAR member in place. It reports false,
// consuming nothing, for any block it does not decode exactly as
// archive/tar would: zero and end blocks, PAX and GNU extension members,
// base-256 or malformed numbers, truncation, and checksums that do not
// match the unsigned sum (archive/tar also accepts a signed one).
func (r *reader) nextUSTAR(h *header) bool {
	if len(r.b)-r.off < blockSize {
		return false
	}
	blk := r.b[r.off : r.off+blockSize]
	flag := blk[offTypeflag]
	switch flag {
	case tar.TypeReg, tar.TypeDir, tar.TypeSymlink, tar.TypeLink, tar.TypeChar, tar.TypeBlock, tar.TypeFifo:
	default:
		return false
	}
	if string(blk[offMagic:offMagic+len(magicUSTAR)]) != magicUSTAR || string(blk[offTrailer:]) == "tar\x00" {
		return false
	}
	sum, ok := parseOctal(blk, fChksum)
	if !ok || sum != checksum(blk) {
		return false
	}
	var nums [7]int64
	for i, f := range [...]field{fMode, fUID, fGID, fSize, fMtime, fDevMajor, fDevMinor} {
		if nums[i], ok = parseOctal(blk, f); !ok {
			return false
		}
	}
	size := nums[3]
	start := r.off + blockSize
	if headerOnly(flag) && size != 0 || size > int64(len(r.b)-start) {
		return false
	}
	end := start + int(size)
	*h = header{
		name:     cstring(blk, fName),
		linkname: cstring(blk, fLinkname),
		typeflag: flag,
		mode:     nums[0],
		uid:      int(nums[1]),
		gid:      int(nums[2]),
		mtime:    time.Unix(nums[4], 0),
		devmajor: nums[5],
		devminor: nums[6],
		body:     r.b[start:end:end],
	}
	if prefix := cstring(blk, fPrefix); prefix != "" {
		h.name = prefix + "/" + h.name
	}
	r.off = end + padding(int(size))
	return true
}

// nextTar decodes one member with archive/tar, reading from r.off, and
// advances past the bytes it consumed rounded up to a block.
func (r *reader) nextTar(h *header) (bool, error) {
	rest := r.b[r.off:]
	br := bytes.NewReader(rest)
	tr := tar.NewReader(br)
	th, err := tr.Next()
	if errors.Is(err, io.EOF) {
		r.off = len(r.b)
		return false, nil
	}
	if err != nil {
		return false, err
	}
	// A sparse member's logical size can exceed its stored bytes; refuse
	// one larger than the whole archive rather than materialise it.
	if !headerOnly(th.Typeflag) && th.Size > int64(len(r.b)) {
		return false, fmt.Errorf("%s: size %d exceeds the archive", th.Name, th.Size)
	}
	body, err := io.ReadAll(tr)
	if err != nil {
		return false, fmt.Errorf("read %s: %w", th.Name, err)
	}
	consumed := len(rest) - br.Len()
	r.off += consumed + padding(consumed)
	*h = header{
		name:     th.Name,
		linkname: th.Linkname,
		typeflag: th.Typeflag,
		mode:     th.Mode,
		uid:      th.Uid,
		gid:      th.Gid,
		mtime:    th.ModTime,
		devmajor: th.Devmajor,
		devminor: th.Devminor,
		body:     body,
	}
	for k, v := range th.PAXRecords {
		if attr, ok := strings.CutPrefix(k, "SCHILY.xattr."); ok {
			if h.xattrs == nil {
				h.xattrs = map[string]string{}
			}
			h.xattrs[attr] = v
		}
	}
	return true, nil
}

var zeroBlock [blockSize]byte

// padding is the number of zero bytes that round n up to a block.
func padding(n int) int { return -n & (blockSize - 1) }

// checksum sums the block's bytes as unsigned values, the checksum field
// read as spaces. It adds eight bytes at a time, each word's bytes summed
// pairwise into four 16-bit lanes (64 words of at most 2×255 per lane
// cannot overflow one).
func checksum(blk []byte) int64 {
	const lo = 0x00ff00ff00ff00ff
	var lanes uint64
	for i := 0; i < blockSize; i += 8 {
		x := binary.LittleEndian.Uint64(blk[i : i+8])
		lanes += x&lo + x>>8&lo
	}
	lanes = lanes&0x0000ffff0000ffff + lanes>>16&0x0000ffff0000ffff
	sum := int64(lanes&0xffffffff + lanes>>32)
	for _, c := range blk[fChksum.off : fChksum.off+fChksum.len] {
		sum += ' ' - int64(c)
	}
	return sum
}

// fitsOctal reports whether x fits f as octal digits plus a NUL.
func fitsOctal(f field, x int64) bool {
	return x >= 0 && x < 1<<(3*(f.len-1))
}

// putOctal writes x into f as zero-padded octal digits and a NUL.
func putOctal(blk []byte, f field, x int64) {
	for i := f.off + f.len - 2; i >= f.off; i-- {
		blk[i] = '0' + byte(x&7)
		x >>= 3
	}
}

// parseOctal reads f as archive/tar reads an octal field — surrounding
// spaces and NULs trimmed, cut at the first NUL — and reports false
// unless what remains is plain octal digits.
func parseOctal(blk []byte, f field) (int64, bool) {
	b := blk[f.off : f.off+f.len]
	for len(b) > 0 && (b[0] == ' ' || b[0] == 0) {
		b = b[1:]
	}
	for len(b) > 0 && (b[len(b)-1] == ' ' || b[len(b)-1] == 0) {
		b = b[:len(b)-1]
	}
	if i := bytes.IndexByte(b, 0); i >= 0 {
		b = b[:i]
	}
	var x int64
	for _, c := range b {
		if c < '0' || c > '7' {
			return 0, false
		}
		x = x<<3 | int64(c-'0')
	}
	return x, true
}

// cstring reads f up to its first NUL.
func cstring(blk []byte, f field) string {
	b := blk[f.off : f.off+f.len]
	if i := bytes.IndexByte(b, 0); i >= 0 {
		b = b[:i]
	}
	return string(b)
}

// isASCII matches archive/tar: no NUL and no byte above 0x7f.
func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] == 0 || s[i] >= 0x80 {
			return false
		}
	}
	return true
}
