// centos7-rpm reproduces the paper's central contrast: the Figure 1b
// Dockerfile (CentOS 7 + yum install openssh) fails without root emulation
// because rpm's cpio extraction chowns a file to an unmapped group, and
// the identical build succeeds under the zero-consistency seccomp filter
// (Figure 2), with zero RUN instructions modified and zero emulation
// state.
package main

import (
	"context"
	"fmt"
	"os"

	"repro/internal/build"
	"repro/internal/image"
	"repro/internal/pkgmgr"
)

const dockerfile = `FROM centos:7
RUN yum install -y openssh
`

func main() {
	world := pkgmgr.NewWorld()
	store := image.NewStore()

	fmt.Println("=== Figure 1b: ch-image build -t win --force=none .")
	_, err := build.BuildContext(context.Background(), dockerfile, build.Options{
		Tag: "win", Force: build.ForceNone, Store: store, World: world, Output: os.Stdout,
	})
	if err == nil {
		fmt.Fprintln(os.Stderr, "unexpected: the build should have failed")
		os.Exit(1)
	}
	fmt.Printf("(as expected: %v)\n\n", err)

	fmt.Println("=== Figure 2: ch-image build -t win --force=seccomp .")
	res, err := build.BuildContext(context.Background(), dockerfile, build.Options{
		Tag: "win", Force: build.ForceSeccomp, Store: store, World: world, Output: os.Stdout,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "build failed: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("\nfaked syscalls: %d; consistent-emulation state records: %d (zero\n",
		res.Counters.Faked, res.FakerootRecords)
	fmt.Println("consistency means zero state). The same Dockerfile, the same package,")
	fmt.Println("the same container type — only the filter differs.")
}
