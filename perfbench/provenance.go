package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// provenance identifies what a result measured: the code, the host and
// the inputs. The checkout a benchmark runs in need not be a git
// repository, so besides the commit (when .git is present) it records
// a hash of every Go source and module file under the working
// directory.
type provenance struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Commit     string `json:"commit"`
	SourceHash string `json:"source_sha256"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Attempted  int64  `json:"ops_attempted"`
	Succeeded  int64  `json:"ops_succeeded"`
	Failed     int64  `json:"ops_failed"`
}

func newProvenance(workload string, seed int64) *provenance {
	return &provenance{
		Workload: workload, Seed: seed,
		Commit: gitCommit(), SourceHash: sourceHash(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
	}
}

func (p *provenance) String() string {
	return fmt.Sprintf("workload=%s seed=%d commit=%s source_sha256=%.16s nproc=%d gomaxprocs=%d go=%s",
		p.Workload, p.Seed, p.Commit, p.SourceHash, p.NumCPU, p.GOMAXPROCS, p.GoVersion)
}

// gitCommit resolves .git/HEAD by reading the repository files, or
// returns "unknown" outside a git checkout.
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if id, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}

// sourceHash hashes the path and content of every .go, go.mod and .s
// file under the working directory, skipping hidden directories.
func sourceHash() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, ".s") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// writeResult records the run's result with its provenance.
func writeResult(dir, workload string, seed int64, traced int, prov *provenance, res *result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(struct {
		Provenance *provenance `json:"provenance"`
		Trace      int         `json:"trace"`
		Result     *result     `json:"result"`
	}{prov, traced, res}, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", workload, seed, traced))
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
