package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// dist summarises one latency sample set the way the benchmark reports
// timings: the median, and the highest percentile that still has at
// least ten samples beyond it, each with the sample count.
type dist struct {
	N       int
	P50     float64
	Tail    float64
	TailPct float64 // 0 when fewer than eleven samples leave no tail
}

// tailBeyond is how many samples must lie beyond the reported tail
// percentile for it to mean anything.
const tailBeyond = 10

// summarize computes the nearest-rank median and tail of xs. The tail
// is the nearest-rank p-th percentile for the largest p that leaves at
// least tailBeyond samples above it: ceil(p*n/100) = n-tailBeyond,
// i.e. sorted[n-tailBeyond-1] at p = 100*(n-tailBeyond)/n.
func summarize(xs []float64) dist {
	n := len(xs)
	if n == 0 {
		return dist{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	d := dist{N: n, P50: s[(n+1)/2-1]}
	if n > tailBeyond {
		d.Tail = s[n-tailBeyond-1]
		d.TailPct = 100 * float64(n-tailBeyond) / float64(n)
	}
	return d
}

// median is the midpoint median (mean of the two middle values for an
// even count), used to aggregate repeated set-ups and rounds.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// clockTicksPerSec is USER_HZ, the unit of /proc/stat. Linux fixes it
// at 100 on every architecture the benchmark runs on.
const clockTicksPerSec = 100

// cpuTicks are counters of the aggregate "cpu" line of /proc/stat, in
// clock ticks, summed over all CPUs: busy is user, nice, system, irq
// and softirq time (guest time is already inside user and nice), and
// steal the time the hypervisor ran something else while a CPU had
// work.
type cpuTicks struct{ busy, steal uint64 }

// parseCPUTicks reads the aggregate "cpu" line of /proc/stat: user
// nice system idle iowait irq softirq steal ..., steal being the
// eighth value after the label.
func parseCPUTicks(r io.Reader) (cpuTicks, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 0 || f[0] != "cpu" {
			continue
		}
		if len(f) < 9 {
			return cpuTicks{}, fmt.Errorf("/proc/stat cpu line has %d fields, want at least 9", len(f))
		}
		var v [8]uint64
		for i := range v {
			n, err := strconv.ParseUint(f[i+1], 10, 64)
			if err != nil {
				return cpuTicks{}, fmt.Errorf("/proc/stat cpu field %d: %w", i+1, err)
			}
			v[i] = n
		}
		return cpuTicks{busy: v[0] + v[1] + v[2] + v[5] + v[6], steal: v[7]}, nil
	}
	if err := sc.Err(); err != nil {
		return cpuTicks{}, err
	}
	return cpuTicks{}, fmt.Errorf("/proc/stat has no aggregate cpu line")
}

// parseVmHWM returns the process's peak resident set, in KiB, from
// /proc/self/status.
func parseVmHWM(r io.Reader) (uint64, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		f := strings.Fields(line[len("VmHWM:"):])
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("malformed VmHWM line %q", line)
		}
		return strconv.ParseUint(f[0], 10, 64)
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// rusageCPU is the user plus system CPU time in a getrusage record.
func rusageCPU(ru *syscall.Rusage) float64 {
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// processCPU is the calling process's CPU time so far (all threads).
func processCPU() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return rusageCPU(&ru), nil
}

// cpuClock is processCPU as a duration, for timing probes in CPU time.
func cpuClock() (time.Duration, error) {
	c, err := processCPU()
	return time.Duration(c * float64(time.Second)), err
}

// cpuSince is the process CPU time spent since c0 (from cpuClock).
func cpuSince(c0 time.Duration) (time.Duration, error) {
	c, err := cpuClock()
	return c - c0, err
}

func readFileWith[T any](path string, parse func(io.Reader) (T, error)) (T, error) {
	f, err := os.Open(path)
	if err != nil {
		var zero T
		return zero, err
	}
	defer f.Close()
	return parse(f)
}

// peakRSSMB is this process's VmHWM in MB.
func peakRSSMB() (float64, error) {
	kb, err := readFileWith("/proc/self/status", parseVmHWM)
	return float64(kb) / 1024, err
}

// meter brackets a timed part of a run and yields its diagnostics:
// wall, process CPU, machine-wide steal, Go GC CPU and bytes
// allocated. Steal is what tells a hypervisor-inflated run from a
// regression; none of these are gated.
type meter struct {
	wall  time.Time
	cpu   float64
	steal uint64
	gc    float64
	alloc uint64
}

var runtimeSamples = []string{"/cpu/classes/gc/total:cpu-seconds", "/gc/heap/allocs:bytes"}

func readRuntime() (gcCPU float64, allocBytes uint64) {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		allocBytes = s[1].Value.Uint64()
	}
	return gcCPU, allocBytes
}

func startMeter() (*meter, error) {
	cpu, err := processCPU()
	if err != nil {
		return nil, err
	}
	ticks, err := readFileWith("/proc/stat", parseCPUTicks)
	if err != nil {
		return nil, err
	}
	gc, alloc := readRuntime()
	return &meter{wall: time.Now(), cpu: cpu, steal: ticks.steal, gc: gc, alloc: alloc}, nil
}

// diagnostics are the ungated run.* and go.* figures of a timed part.
type diagnostics struct {
	WallS, CPUS, StealS, GCCPUS, AllocMB float64
}

func (m *meter) stop() (diagnostics, error) {
	wall := time.Since(m.wall).Seconds()
	cpu, err := processCPU()
	if err != nil {
		return diagnostics{}, err
	}
	ticks, err := readFileWith("/proc/stat", parseCPUTicks)
	if err != nil {
		return diagnostics{}, err
	}
	gc, alloc := readRuntime()
	return diagnostics{
		WallS:   wall,
		CPUS:    cpu - m.cpu,
		StealS:  float64(ticks.steal-m.steal) / clockTicksPerSec,
		GCCPUS:  gc - m.gc,
		AllocMB: float64(alloc-m.alloc) / (1 << 20),
	}, nil
}

func (d diagnostics) metrics() map[string]float64 {
	return map[string]float64{
		"run.wall_s":  d.WallS,
		"run.cpu_s":   d.CPUS,
		"run.steal_s": d.StealS,
		"go.gc_cpu_s": d.GCCPUS,
		"go.alloc_mb": d.AllocMB,
	}
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// fits reports whether one more round, as long as the mean of the rot
// rounds done since start, still ends within budget. A run always
// completes whole rounds, so every run measures the same mix.
func fits(start time.Time, rot int, budget time.Duration) bool {
	done := time.Since(start)
	return done+done/time.Duration(rot) <= budget
}

// phase brackets a stretch of wall time to learn how much of the
// CPU time its work wanted the hypervisor took.
type phase struct {
	t0    time.Time
	ticks cpuTicks
}

func startPhase() (phase, error) {
	t, err := readFileWith("/proc/stat", parseCPUTicks)
	return phase{time.Now(), t}, err
}

// end returns the stretch's wall seconds and its busy and steal
// seconds summed over all CPUs.
func (p phase) end() (wall, busy, steal float64, err error) {
	t, err := readFileWith("/proc/stat", parseCPUTicks)
	return time.Since(p.t0).Seconds(), float64(t.busy-p.ticks.busy) / clockTicksPerSec,
		float64(t.steal-p.ticks.steal) / clockTicksPerSec, err
}

// minStealCPU is the least busy-plus-steal time whose steal share is
// trusted: /proc/stat counts in 10 ms ticks, so one tick in a shorter
// stretch would read as a large share.
const minStealCPU = 0.2 // seconds

// stealShare is the share of the CPU time work wanted over a stretch
// that the hypervisor took: steal over busy plus steal. An idle vCPU
// accrues no steal, so steal is a share of runnable time, not of wall
// time on every CPU; with one busy thread on two vCPUs the latter
// would halve it. Zero for stretches too short to tell.
func stealShare(busy, steal float64) float64 {
	if busy+steal < minStealCPU {
		return 0
	}
	return steal / (busy + steal)
}
