package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// hostRecord travels with every result, so that numbers from different
// hosts or source trees are never compared silently.
type hostRecord struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Commit is the git revision of the working directory, or "none"
	// outside a git checkout; Source identifies the tree either way.
	Commit   string `json:"commit"`
	Source   string `json:"source"`
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	// Runs is the number of timed grid passes the medians are taken
	// over.
	Runs  int  `json:"runs"`
	Trace bool `json:"trace"`
}

func newHostRecord(workload string, seed uint64, trace bool) hostRecord {
	return hostRecord{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(),
		Source:     sourceDigest("."),
		Workload:   workload,
		Seed:       seed,
		Trace:      trace,
	}
}

// gitCommit returns the revision of the git checkout rooted exactly at
// the working directory, or "none".
func gitCommit() string {
	wd, err := os.Getwd()
	if err != nil {
		return "none"
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	out, err := cmd.Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes the Go sources and module files under root,
// skipping hidden directories (build outputs live in one).
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, path+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
