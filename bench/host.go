package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// hostInfo accompanies every output: absolute numbers compare only
// between outputs whose host fields match.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
	// SpeedFactor is the run's reference-chunk time over refChunk.
	SpeedFactor float64 `json:"speed_factor"`
}

func currentHost(workload string, seed int64, seconds, trace int) hostInfo {
	return hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(),
		Workload:   workload,
		Seed:       seed,
		Seconds:    seconds,
		Trace:      trace,
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

// gitCommit names the checked-out commit when the working directory is
// the top of a git checkout; an exported tree reports "unknown".
func gitCommit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// peakRSSMB reads a process's VmHWM (peak resident set) in MB.
func peakRSSMB(pid string) (float64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb * 1024 / 1e6, err
			}
		}
	}
	return 0, fmt.Errorf("/proc/%s/status: no VmHWM line", pid)
}

// rssWatch samples a process's peak resident set once per interval and
// resets it after each sample, so a run yields one peak per interval.
// A single whole-run peak depends on where garbage collections fall; the
// median of interval peaks repeats from run to run.
type rssWatch struct {
	stop chan struct{}
	done chan rssResult
}

type rssResult struct {
	peaks []float64
	err   error
}

const rssInterval = time.Second

// resetPeakRSS restarts pid's VmHWM from its current resident set.
func resetPeakRSS(pid string) error {
	return os.WriteFile("/proc/"+pid+"/clear_refs", []byte("5"), 0)
}

func watchRSS(pid string) *rssWatch {
	w := &rssWatch{stop: make(chan struct{}), done: make(chan rssResult, 1)}
	go func() {
		var r rssResult
		sample := func() {
			mb, err := peakRSSMB(pid)
			if err == nil {
				err = resetPeakRSS(pid)
			}
			if err != nil {
				r.err = err
			}
			r.peaks = append(r.peaks, mb)
		}
		r.err = resetPeakRSS(pid)
		tick := time.NewTicker(rssInterval)
		defer tick.Stop()
		for {
			select {
			case <-w.stop:
				sample()
				w.done <- r
				return
			case <-tick.C:
				sample()
			}
		}
	}()
	return w
}

// finish stops sampling and returns the median interval peak in MB.
func (w *rssWatch) finish() (float64, error) {
	close(w.stop)
	r := <-w.done
	return median(r.peaks), r.err
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times; Linux
// fixes it at 100 on every architecture Go supports.
const clockTick = 10 * time.Millisecond

// cpuTime reads a process's user+system CPU time.
func cpuTime(pid string) (time.Duration, error) {
	data, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields after its
	// closing parenthesis are space-separated, utime and stime being
	// fields 14 and 15 of the whole line.
	i := strings.LastIndexByte(string(data), ')')
	if i < 0 {
		return 0, fmt.Errorf("/proc/%s/stat: malformed", pid)
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%s/stat: malformed", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%s/stat: malformed CPU times", pid)
	}
	return time.Duration(ut+st) * clockTick, nil
}
