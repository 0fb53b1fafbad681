package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
)

// buildDir holds everything the benchmark builds, under the checkout
// root. It is the directory the root .gitignore names.
const buildDir = ".bench_build"

// repoRoot finds the checkout root — the directory whose go.mod
// declares module entityid — from the working directory upwards.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		mod, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && bytes.HasPrefix(mod, []byte("module entityid\n")) {
			return dir, nil
		}
		up := filepath.Dir(dir)
		if up == dir {
			return "", fmt.Errorf("no go.mod of module entityid at or above the working directory: run from the repository")
		}
		dir = up
	}
}

type binaries struct {
	daemon string
	etrace string // empty when the traced run does not build
}

// build compiles the daemon, which the benchmark cannot run without,
// and the traced run, which it can: etrace imports the program's
// internal packages, so an internal API change may break it, and the
// black-box numbers must survive that.
func build(root string, traced bool) (binaries, error) {
	out := filepath.Join(root, buildDir, "bin")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return binaries{}, err
	}
	b := binaries{daemon: filepath.Join(out, "entityidd")}
	if err := goBuild(root, b.daemon, "./cmd/entityidd"); err != nil {
		return binaries{}, err
	}
	if !traced {
		return b, nil
	}
	b.etrace = filepath.Join(out, "etrace")
	if err := goBuild(filepath.Join(root, "bench"), b.etrace, "./cmd/etrace"); err != nil {
		fmt.Fprintf(os.Stderr, "ebench: warning: the traced run does not build, its metrics will be missing: %v\n", err)
		b.etrace = ""
	}
	return b, nil
}

func goBuild(dir, out, pkg string) error {
	cmd := exec.Command("go", "build", "-o", out, pkg)
	cmd.Dir = dir
	if msg, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build %s: %v\n%s", pkg, err, msg)
	}
	return nil
}
