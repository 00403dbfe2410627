package pkgmgr

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/simos"
	"repro/internal/tarutil"
	"repro/internal/vfs"
)

// APK format: a tar archive whose first member is .PKGINFO (key = value
// lines) followed by the package files — close enough to the real .apk
// (which is three concatenated gzipped tar segments) that parsing exercises
// the same machinery.

// BuildAPK encodes a package.
func BuildAPK(p *Package) ([]byte, error) {
	var info strings.Builder
	fmt.Fprintf(&info, "pkgname = %s\n", p.Name)
	fmt.Fprintf(&info, "pkgver = %s\n", p.Version)
	fmt.Fprintf(&info, "size = %d\n", p.Size)
	for _, d := range p.Depends {
		fmt.Fprintf(&info, "depend = %s\n", d)
	}
	if p.Trigger != "" {
		fmt.Fprintf(&info, "triggers = %s\n", p.Trigger)
	}
	if p.PostInstall != "" {
		fmt.Fprintf(&info, "postinstall = %s\n", encodeScript(p.PostInstall))
	}
	return packPayload(".PKGINFO", info.String(), p.Files)
}

// ParseAPK decodes a package.
func ParseAPK(blob []byte) (*Package, error) {
	p := &Package{}
	files, err := readPayload(blob, ".PKGINFO", func(text string) { parsePkginfo(p, text) })
	if err != nil {
		return nil, fmt.Errorf("pkgmgr: apk: %w", err)
	}
	p.Files = files
	if p.Name == "" {
		return nil, fmt.Errorf("pkgmgr: apk: missing .PKGINFO")
	}
	return p, nil
}

func parsePkginfo(p *Package, text string) {
	for _, line := range strings.Split(text, "\n") {
		k, v, ok := strings.Cut(line, " = ")
		if !ok {
			continue
		}
		switch k {
		case "pkgname":
			p.Name = v
		case "pkgver":
			p.Version = v
		case "size":
			fmt.Sscanf(v, "%d", &p.Size)
		case "depend":
			p.Depends = append(p.Depends, v)
		case "triggers":
			p.Trigger = v
		case "postinstall":
			p.PostInstall = decodeScript(v)
		}
	}
}

// encodeScript flattens a script into one .PKGINFO line.
func encodeScript(s string) string { return strings.ReplaceAll(s, "\n", "\\n") }

func decodeScript(s string) string { return strings.ReplaceAll(s, "\\n", "\n") }

// packPayload encodes a package tar (shared with deb): a metadata member
// named meta holding text, then the package files.
func packPayload(meta, text string, files []FileSpec) ([]byte, error) {
	ents := make([]tarutil.Entry, 0, 1+len(files))
	ents = append(ents, tarutil.Entry{
		Path: "/" + meta,
		Stat: vfs.Stat{Type: vfs.TypeRegular, Mode: 0o644},
		Data: []byte(text),
	})
	for _, f := range files {
		ents = append(ents, tarutil.Entry{
			Path: f.Path,
			Stat: vfs.Stat{Type: f.Type, Mode: f.Mode, UID: f.UID, GID: f.GID,
				Rdev: vfs.Makedev(f.Major, f.Minor)},
			Data:   f.Data,
			Target: f.Target,
		})
	}
	return tarutil.Pack(ents)
}

// readPayload decodes a package tar (shared with deb): the text of the
// member named meta goes to parseMeta, every other member becomes a
// FileSpec whose Data aliases blob.
func readPayload(blob []byte, meta string, parseMeta func(text string)) ([]FileSpec, error) {
	ents, err := tarutil.Read(blob)
	if err != nil {
		return nil, err
	}
	var files []FileSpec
	for _, e := range ents {
		if e.Path == "/"+meta {
			parseMeta(string(e.Data))
			continue
		}
		files = append(files, FileSpec{
			Path: e.Path, Type: e.Stat.Type, Mode: e.Stat.Mode,
			UID: e.Stat.UID, GID: e.Stat.GID,
			Data: e.Data, Target: e.Target,
			Major: e.Stat.Rdev.Major(), Minor: e.Stat.Rdev.Minor(),
		})
	}
	return files, nil
}

// apkInstalledDB is where apk records installed packages.
const apkInstalledDB = "/lib/apk/db/installed"

// APKBinary builds the /sbin/apk executable bound to a repository.
func APKBinary(repo *Repo) *simos.Binary {
	return &simos.Binary{
		Name:   "apk",
		Static: false, // apk links against musl dynamically
		Main: func(ctx *simos.ExecCtx) int {
			args := ctx.Argv[1:]
			if len(args) == 0 {
				fmt.Fprintln(ctx.Stderr, "apk: usage: apk add PKG...")
				return 1
			}
			switch args[0] {
			case "add":
				return apkAdd(ctx, repo, filterFlags(args[1:]))
			case "update":
				fmt.Fprintf(ctx.Stdout, "fetch %s/x86_64/APKINDEX.tar.gz\n", repo.URL)
				fmt.Fprintln(ctx.Stdout, "OK: index updated")
				return 0
			case "info":
				for _, n := range repo.Names() {
					fmt.Fprintln(ctx.Stdout, n)
				}
				return 0
			}
			fmt.Fprintf(ctx.Stderr, "apk: unknown command %q\n", args[0])
			return 1
		},
	}
}

func filterFlags(args []string) []string {
	var out []string
	for _, a := range args {
		if !strings.HasPrefix(a, "-") {
			out = append(out, a)
		}
	}
	return out
}

func apkAdd(ctx *simos.ExecCtx, repo *Repo, pkgs []string) int {
	p := ctx.Proc
	// Fig. 1a lines 7-8: two index fetches.
	fmt.Fprintf(ctx.Stdout, "fetch %s/main/x86_64/APKINDEX.tar.gz\n", repo.URL)
	fmt.Fprintf(ctx.Stdout, "fetch %s/community/x86_64/APKINDEX.tar.gz\n", repo.URL)

	installed := readInstalledDB(p, apkInstalledDB)
	order, err := repo.Resolve(pkgs, installed)
	if err != nil {
		fmt.Fprintf(ctx.Stderr, "ERROR: %v\n", err)
		return 1
	}
	var triggers []string
	totalKiB := 0
	for i, meta := range order {
		blob, ok := repo.Fetch(meta.Name)
		if !ok {
			fmt.Fprintf(ctx.Stderr, "ERROR: unable to fetch %s\n", meta.Name)
			return 1
		}
		pkg, err := ParseAPK(blob)
		if err != nil {
			fmt.Fprintf(ctx.Stderr, "ERROR: %s: %v\n", meta.Name, err)
			return 1
		}
		fmt.Fprintf(ctx.Stdout, "(%d/%d) Installing %s (%s)\n", i+1, len(order), pkg.Name, pkg.Version)
		if msg := extractFiles(ctx, pkg.Files, extractOptions{Tool: "apk"}); msg != "" {
			fmt.Fprintf(ctx.Stderr, "ERROR: %s: %s\n", pkg.Name, msg)
			return 1
		}
		if status := runScript(ctx, pkg.PostInstall); status != 0 {
			fmt.Fprintf(ctx.Stderr, "ERROR: %s: post-install script failed (%d)\n", pkg.Name, status)
			return 1
		}
		if pkg.Trigger != "" {
			triggers = append(triggers, pkg.Trigger)
		}
		appendInstalledDB(p, apkInstalledDB, pkg.Name)
		installed[pkg.Name] = true
		totalKiB += pkg.Size
	}
	sort.Strings(triggers)
	for _, t := range triggers {
		fmt.Fprintf(ctx.Stdout, "Executing %s\n", t)
	}
	fmt.Fprintf(ctx.Stdout, "OK: %d MiB in %d packages\n",
		(totalKiB+1023)/1024+7, len(installed))
	return 0
}
