// Quickstart: build the paper's Figure 1a Dockerfile — an Alpine image
// installing sl(1) — in a fully unprivileged (Type III) simulated
// container, first without root emulation (it works: apk issues no
// privileged syscalls for root-owned packages), then with the seccomp
// filter (it also works, and the counters show the filter riding along).
package main

import (
	"context"
	"fmt"
	"os"

	"repro/internal/build"
	"repro/internal/image"
	"repro/internal/pkgmgr"
)

const dockerfile = `FROM alpine:3.19
RUN apk add sl
`

func main() {
	world := pkgmgr.NewWorld()
	store := image.NewStore()

	for _, mode := range []build.ForceMode{build.ForceNone, build.ForceSeccomp} {
		fmt.Printf("=== ch-image build -t win --force=%s .\n", mode)
		res, err := build.BuildContext(context.Background(), dockerfile, build.Options{
			Tag: "win", Force: mode, Store: store, World: world, Output: os.Stdout,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "build failed: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("    syscalls=%d filtered=%d faked=%d layers=%d\n\n",
			res.Counters.Syscalls, res.Counters.Filtered, res.Counters.Faked,
			len(res.Image.Layers))
	}
	fmt.Println("Both modes succeed for Figure 1a: apk needs no privilege for")
	fmt.Println("root-owned packages, which is why the paper's rpm example is the")
	fmt.Println("interesting one — see examples/centos7-rpm.")
}
