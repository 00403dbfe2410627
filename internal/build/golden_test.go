package build

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"repro/internal/image"
	"repro/internal/pkgmgr"
)

// Digest stability: layer digests, package blobs and chain digests are the
// persistent cache's keys, so any change to their bytes turns every
// existing cache directory cold. These golden values pin the bytes the
// tar encoder produces for base images, package payloads and the layer
// chains of the benchmark's build shapes. A change to any of them must be
// deliberate, and this test must then change with it.

// goldenBaseLayers are the layer digests of the three base images.
var goldenBaseLayers = map[string]string{
	"alpine:3.19": "sha256:21cb45187bc52789c5ee3b1de7104c98491bcc434ed06c2a4d96056217534659",
	"centos:7":    "sha256:ef02e9467f4910517c2475e777d8bb806c9fd0bd3106750773565d0c6b5a51df",
	"debian:12":   "sha256:08c9356cc053f60907df60b77a1b344ff63850078a5eeb028bc530882055f485",
}

// goldenPackages are the sha256 sums of every package blob in NewWorld,
// keyed "format/name".
var goldenPackages = map[string]string{
	"apk/libncursesw":           "318e47f9130fcca0d4a2def5dc5521cd859795901c3c6bd7c80ca8ed426e7878",
	"apk/ncurses-terminfo-base": "2b73de05f937f8b1a63228c2cdc68145807d5829ae1274cc8f834ec1e97711bb",
	"apk/nonroot-demo":          "0f2997468d15cb8c1be754e4e2d1afb003992a80800c694fe02dd5ad5d170d3d",
	"apk/sl":                    "8b083b2c05adf27b71ec9df0e43e95fbc0e80019ed29c203dfffa82ef51d98c2",
	"deb/curl":                  "db8044c60157c998288eaeaf68097d4151c380f15303e1df8a9570053a2dbdb1",
	"deb/iputils-ping":          "8a79f3482584c0e43335745ed8eb2dc5190f7d906e3a64f8a0b14805ab2721e6",
	"deb/libcurl4":              "bfc0ecf8d7b4ce5842104c6b4d885b94bd522868c01e5b02f30417f121b22d13",
	"rpm/fipscheck":             "c22b00ce4e28a6abd795368dc134616e5d05a6415f179b59a1599b71080ff782",
	"rpm/fipscheck-lib":         "9cf08be373453fc14625d9406c99fc04f555c1f7cf4f33b70799c9cb4b5e0e81",
	"rpm/openssh":               "fe559785617158e7cf2ea7e1cdcf413afa16780e2de9aae4a1bbce095c2ec2c4",
	"rpm/which":                 "9975051c1087e093ba9590ad692c2a5f5df3755f6109134737b5cedde0153e18",
}

// goldenChains are the final chain digests of the benchmark's build shapes
// under each root-emulation mode, built with fixed tokens and context.
var goldenChains = map[string]string{
	"alpine-seccomp":  "sha256:d4a0bae33c0991c6ef46430d8730543952c14ec766ecbe6f44948d09175f9081",
	"alpine-fakeroot": "sha256:d4a0bae33c0991c6ef46430d8730543952c14ec766ecbe6f44948d09175f9081",
	"alpine-proot":    "sha256:d4a0bae33c0991c6ef46430d8730543952c14ec766ecbe6f44948d09175f9081",
	"centos-seccomp":  "sha256:7fad102eb6d22e6fedae839956d641f9d9f572ff6bc84c4fca976daae340e4a7",
	"centos-fakeroot": "sha256:d9b4182efe612daa319d6774b83e83ab946de632075d9b55e589cb7bcc3fab6e",
	"centos-proot":    "sha256:7fad102eb6d22e6fedae839956d641f9d9f572ff6bc84c4fca976daae340e4a7",
	"debian-seccomp":  "sha256:2b8c76c196aaf57262a221a9c0aa21edd98c375e81883f8bda6896949fcfab9a",
	"debian-fakeroot": "sha256:2b8c76c196aaf57262a221a9c0aa21edd98c375e81883f8bda6896949fcfab9a",
	"debian-proot":    "sha256:2b8c76c196aaf57262a221a9c0aa21edd98c375e81883f8bda6896949fcfab9a",
	"multi-seccomp":   "sha256:d24e38b27cc626db5098818f529463b4ada66db73b1532e6b3311c55c8a86385",
	"multi-fakeroot":  "sha256:d24e38b27cc626db5098818f529463b4ada66db73b1532e6b3311c55c8a86385",
	"multi-proot":     "sha256:d24e38b27cc626db5098818f529463b4ada66db73b1532e6b3311c55c8a86385",
}

func TestGoldenBaseImageLayers(t *testing.T) {
	world := pkgmgr.NewWorld()
	for _, b := range goldenBases {
		img, err := world.BaseImage(b.distro, b.name)
		if err != nil {
			t.Fatal(err)
		}
		if len(img.Layers) != 1 {
			t.Fatalf("%s: %d layers, want 1", b.name, len(img.Layers))
		}
		if got, want := img.Layers[0].Digest, goldenBaseLayers[b.name]; got != want {
			t.Errorf("%s layer digest %s, golden %s", b.name, got, want)
		}
	}
}

func TestGoldenPackageBlobs(t *testing.T) {
	world := pkgmgr.NewWorld()
	got := map[string]string{}
	for _, repo := range []*pkgmgr.Repo{world.Alpine, world.CentOS7, world.Debian} {
		for _, name := range repo.Names() {
			blob, ok := repo.Fetch(name)
			if !ok {
				t.Fatalf("%s: listed but not fetchable", name)
			}
			sum := sha256.Sum256(blob)
			got[repo.Format+"/"+name] = hex.EncodeToString(sum[:])
		}
	}
	compareGolden(t, "package blob", got, goldenPackages)
}

func TestGoldenChainDigests(t *testing.T) {
	app := []byte(strings.Repeat("golden app.txt context file\n", 36))
	modes := []struct {
		name  string
		force ForceMode
	}{{"seccomp", ForceSeccomp}, {"fakeroot", ForceFakeroot}, {"proot", ForceProot}}
	got := map[string]string{}
	for _, shape := range goldenShapes {
		for _, m := range modes {
			world := pkgmgr.NewWorld()
			store := image.NewStore()
			for _, b := range goldenBases {
				img, err := world.BaseImage(b.distro, b.name)
				if err != nil {
					t.Fatal(err)
				}
				store.Put(img)
			}
			tag := shape.name + "-" + m.name + ":golden"
			res, err := BuildContext(context.Background(), shape.text, Options{
				Tag: tag, Force: m.force, Store: store, World: world,
				Context: map[string][]byte{"app.txt": app}, StageJobs: 1,
			})
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			got[shape.name+"-"+m.name] = image.ChainDigest(res.Image.Layers)
		}
	}
	compareGolden(t, "chain digest", got, goldenChains)
}

var goldenBases = []struct{ distro, name string }{
	{pkgmgr.DistroAlpine, "alpine:3.19"},
	{pkgmgr.DistroCentOS7, "centos:7"},
	{pkgmgr.DistroDebian, "debian:12"},
}

// goldenShapes are the benchmark's Dockerfile shapes with the token fixed.
var goldenShapes = []struct{ name, text string }{
	{"alpine", goldenSingle("alpine:3.19", "apk add sl")},
	{"centos", goldenSingle("centos:7", "yum install -y openssh")},
	{"debian", goldenSingle("debian:12", "apt-get install -y curl")},
	{"multi", `FROM centos:7 AS build
RUN yum install -y which
RUN mkdir -p /opt && echo 5eed0f601de2 > /opt/out

FROM alpine:3.19
RUN apk add sl
COPY --from=build /opt/out /app/out
COPY app.txt /app/app.txt
`},
}

func goldenSingle(base, install string) string {
	return fmt.Sprintf(`FROM %s
RUN %s
COPY app.txt /srv/app.txt
RUN mkdir -p /bench && echo 5eed0f601de2 > /bench/marker
ENV BENCH_TOKEN=5eed0f601de2
WORKDIR /srv
`, base, install)
}

// compareGolden reports every key whose value differs from the golden map,
// and every key present on only one side.
func compareGolden(t *testing.T, what string, got, want map[string]string) {
	t.Helper()
	for k, g := range got {
		if w, ok := want[k]; !ok {
			t.Errorf("%s %s = %s has no golden value", what, k, g)
		} else if g != w {
			t.Errorf("%s %s = %s, golden %s", what, k, g, w)
		}
	}
	for k := range want {
		if _, ok := got[k]; !ok {
			t.Errorf("%s %s golden but not produced", what, k)
		}
	}
}
