package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// stamp records where and on what a result was measured.
type stamp struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Packets    int     `json:"packets"`
	Scale      float64 `json:"scale"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
	// Commit is the VCS revision the benchmark was built from, when the
	// build saw one; SourceSHA256 identifies the program source either
	// way (a checkout without VCS metadata has no revision).
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
}

func newStamp(o options, packets int) stamp {
	return stamp{
		Workload: o.workload, Seed: o.seed, Packets: packets, Scale: o.scale,
		Seconds: o.seconds, Trace: o.trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPUModel: cpuModel(), GoVersion: runtime.Version(),
		Commit: commit(), SourceSHA256: sourceDigest("."),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "+modified"
			}
			return rev
		}
	}
	return "unknown"
}

// sourceDigest hashes the program's Go sources and go.mod under root
// (the checkout), in path order, skipping build output.
func sourceDigest(root string) string {
	var paths []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && p != root || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return "unknown"
		}
		io.WriteString(h, filepath.ToSlash(p)+"\x00")
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "unknown"
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
