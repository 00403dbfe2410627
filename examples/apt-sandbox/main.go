// apt-sandbox reproduces the paper's §5 exception: Debian's apt drops
// privileges for downloads and *verifies* the drop, which zero-consistency
// emulation cannot satisfy. Four runs show the full story:
//
//  1. --force=none               — the drop itself fails (EINVAL).
//  2. --force=seccomp, no fix    — the drop "succeeds", verification fails.
//  3. --force=seccomp + fix      — ch-image injects -o APT::Sandbox::User=root.
//  4. --force=fakeroot           — consistent emulation passes verification
//     with no workaround (the one place consistency pays, §6).
package main

import (
	"context"
	"fmt"
	"os"

	"repro/internal/build"
	"repro/internal/image"
	"repro/internal/pkgmgr"
)

const dockerfile = `FROM debian:12
RUN apt-get install -y curl
`

func main() {
	world := pkgmgr.NewWorld()
	store := image.NewStore()

	runs := []struct {
		title string
		opt   build.Options
		fails bool
	}{
		{"1) --force=none", build.Options{Force: build.ForceNone}, true},
		{"2) --force=seccomp, workaround disabled", build.Options{Force: build.ForceSeccomp, DisableAptWorkaround: true}, true},
		{"3) --force=seccomp, with the §5 workaround", build.Options{Force: build.ForceSeccomp}, false},
		{"4) --force=fakeroot (consistent, no workaround needed)", build.Options{Force: build.ForceFakeroot}, false},
	}
	for _, r := range runs {
		fmt.Println("=== " + r.title)
		r.opt.Tag = "apt-demo"
		r.opt.Store = store
		r.opt.World = world
		r.opt.Output = os.Stdout
		res, err := build.BuildContext(context.Background(), dockerfile, r.opt)
		switch {
		case r.fails && err == nil:
			fmt.Fprintln(os.Stderr, "unexpected success")
			os.Exit(1)
		case !r.fails && err != nil:
			fmt.Fprintf(os.Stderr, "unexpected failure: %v\n", err)
			os.Exit(1)
		case err != nil:
			fmt.Printf("(as expected: %v)\n", err)
		default:
			fmt.Printf("(ok; modified RUN instructions: %d)\n", res.ModifiedRuns)
		}
		fmt.Println()
	}
}
