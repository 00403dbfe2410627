package cas

import (
	"os"
	"syscall"
	"unsafe"
)

// openBlobDir opens the handle a Dir holds on blobs/sha256 for its
// presence checks. os.OpenFile adds O_CLOEXEC itself.
func openBlobDir(p string) (*os.File, error) {
	return os.OpenFile(p, os.O_RDONLY|syscall.O_DIRECTORY, 0)
}

// hasBlobLocked reports whether the blob digest names exists: one
// faccessat of "ab/<62 hex>" relative to the held blobs/sha256 handle, so
// the kernel resolves two path components, not the whole path from the
// working directory, and no FileInfo is built. A directory at the blob
// path counts as present, as it does for a stat. A malformed digest is
// absent without a syscall. EINTR is retried: an interrupted check must
// not read as a missing blob.
func (d *Dir) hasBlobLocked(digest string) bool {
	h, ok := digestHex(digest)
	if !ok {
		return false
	}
	// Built on the stack: Faccessat copies the path into its own
	// NUL-terminated buffer and keeps no reference to it.
	var rel [2 + 1 + 62]byte
	copy(rel[:2], h)
	rel[2] = '/'
	copy(rel[3:], h[2:])
	fd := int(d.blobs.Fd())
	for {
		err := syscall.Faccessat(fd, unsafe.String(&rel[0], len(rel)), syscall.F_OK, 0)
		if err != syscall.EINTR {
			return err == nil
		}
	}
}
