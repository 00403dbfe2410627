//go:build !linux

package cas

import "os"

// Off Linux the syscall package has no faccessat. The blobs/sha256 handle
// is still held, so Open fails the same way when the layout cannot be
// opened, but presence is a stat of the blob's whole path.

func openBlobDir(p string) (*os.File, error) { return os.Open(p) }

func (d *Dir) hasBlobLocked(digest string) bool {
	p, err := d.blobPath(digest)
	if err != nil {
		return false
	}
	_, err = os.Stat(p)
	return err == nil
}
