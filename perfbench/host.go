package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
)

// hostStamp names the host and runtime a result was taken on. Absolute
// numbers are records of that host; only same-host comparisons gate.
type hostStamp struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       int    `json:"gogc"`
	Workers    int    `json:"workers"`
	StateDir   string `json:"state_dir"`
	StateFS    string `json:"state_fs"`
}

// printHost prints the stamp as one line ahead of the result.
func printHost(name string, seed uint64, stateDir string) {
	gogc := debug.SetGCPercent(100)
	debug.SetGCPercent(gogc)
	abs, err := filepath.Abs(stateDir)
	if err != nil {
		abs = stateDir
	}
	h := hostStamp{
		Workload:   name,
		Seed:       seed,
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOGC:       gogc,
		Workers:    1,
		StateDir:   abs,
		StateFS:    fsType(stateDir),
	}
	blob, err := json.Marshal(h)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: host stamp:", err)
		return
	}
	fmt.Println("host", string(blob))
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
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

// fsMagic names the filesystems a persistence directory is likely on.
var fsMagic = map[int64]string{
	0xEF53:     "ext4",
	0x01021994: "tmpfs",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x794C7630: "overlayfs",
	0x6969:     "nfs",
}

// fsType reports the filesystem type of dir from statfs.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsMagic[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}
