package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The host's speed drifts on a shared machine: the same code on the same
// inputs ran 1.7 times faster at one point of a four-minute set than at
// another, in process CPU time as much as in wall time, so the drift is
// contention for the cores and caches, not steal. The gated timing
// metrics therefore are expressed on a nominal host. A fixed reference
// computation, part of the benchmark and never of the program under test,
// is timed in a child process between the timed units of work (grid
// passes, load chunks, set-ups); its median time over the phase, against
// refNominal, scales the phase's timings:
//
//	norm_rate = rate × refMedian / refNominal
//	norm_time = time × refNominal / refMedian
//
// A program change moves the raw timings and not the reference, so it
// moves the normalized metrics by the same factor. The raw timings are
// printed beside them as details.

// refNominal is a fixed scale, about the reference computation's time on
// a quiet 2-vCPU x86-64 Xeon virtual machine with 2 goroutines; its value
// only sets the units of the normalized metrics.
const refNominal = 25 * time.Millisecond

// The reference computation allocates and walks small objects: short
// linked lists folded into a small map, then larger maps of pointers
// built and walked. The simulator and the estimator spend their time the
// same way (allocation, map access, pointer chasing), and a reference
// like them tracks their slowdowns best: on sweep and
// estimate passes, references that add an integer hash chain, or stream
// 32 MB, or chase pointers through 16 MB moved about half as much as the
// passes did or less, and left the normalized spread higher.
const (
	refLists      = 10
	refListNodes  = 10_000
	refMaps       = 3
	refMapEntries = 30_000
	refBallast    = 64 << 20
)

// refSink keeps the reference computation's results alive.
var refSink atomic.Uint64

type refNode struct {
	next *refNode
	v    [4]uint64
}

// refWork is one goroutine's share of the reference computation.
func refWork(seed uint64) uint64 {
	x := uint32(seed)
	var h uint64
	for r := 0; r < refLists; r++ {
		var head *refNode
		for i := 0; i < refListNodes; i++ {
			x = x*1664525 + 1013904223
			head = &refNode{next: head, v: [4]uint64{uint64(x)}}
		}
		m := make(map[uint32]uint64)
		for n := head; n != nil; n = n.next {
			m[uint32(n.v[0])&1023] += n.v[0]
		}
		h += uint64(len(m))
	}
	for r := 0; r < refMaps; r++ {
		m := make(map[uint64]*refNode)
		for i := 0; i < refMapEntries; i++ {
			x = x*1664525 + 1013904223
			m[uint64(x)] = &refNode{v: [4]uint64{uint64(i)}}
		}
		for k, n := range m {
			h += k ^ n.v[0]
		}
	}
	return h
}

// hostSpeed times the reference computation in a child process, the
// benchmark's own binary run with --reference. The child has its own heap
// and garbage collector, so the reference's time depends on the host
// alone and not on the heap the program under test has built up.
type hostSpeed struct {
	cmd     *exec.Cmd
	in      io.WriteCloser
	out     *bufio.Scanner
	samples []float64 // seconds
}

// startHostSpeed starts the reference process; the reference runs on as
// many goroutines as the timed work uses. close must be called to stop
// it.
func startHostSpeed(workers int) (*hostSpeed, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "--reference", strconv.Itoa(workers))
	cmd.Stderr = os.Stderr
	// The child also ends when this process dies without closing it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting the reference process: %w", err)
	}
	return &hostSpeed{cmd: cmd, in: in, out: bufio.NewScanner(out)}, nil
}

// probe times the reference computation once.
func (h *hostSpeed) probe() error {
	if _, err := io.WriteString(h.in, "\n"); err != nil {
		return fmt.Errorf("reference process: %w", err)
	}
	if !h.out.Scan() {
		return fmt.Errorf("reference process stopped: %v", h.out.Err())
	}
	v, err := strconv.ParseFloat(h.out.Text(), 64)
	if err != nil {
		return fmt.Errorf("reference process: %w", err)
	}
	h.samples = append(h.samples, v)
	return nil
}

// close stops the reference process and waits for it to exit.
func (h *hostSpeed) close() error {
	h.in.Close()
	return h.cmd.Wait()
}

// serveReference is the reference process: for every line read from r it
// runs the reference computation on workers goroutines and writes its
// wall time in seconds to w; it returns at end of input.
func serveReference(r io.Reader, w io.Writer, workers int) error {
	// A pointer-free ballast, never touched, raises the collector's heap
	// goal, so the reference collects every few probes instead of every
	// few hundred kilobytes: the reference measures the allocator and the
	// caches, and the collector's fixed costs do not swamp them.
	ballast := make([]byte, refBallast)
	defer runtime.KeepAlive(ballast)
	in := bufio.NewScanner(r)
	for in.Scan() {
		start := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(seed uint64) {
				defer wg.Done()
				refSink.Add(refWork(seed))
			}(uint64(w + 1))
		}
		wg.Wait()
		if _, err := fmt.Fprintln(w, time.Since(start).Seconds()); err != nil {
			return err
		}
	}
	return in.Err()
}

// factor is how much slower than nominal the host ran over the phase:
// the median reference time over refNominal.
func (h *hostSpeed) factor() float64 {
	return median(h.samples) / refNominal.Seconds()
}

// rate scales a rate measured in the phase to the nominal host.
func (h *hostSpeed) rate(v float64) float64 { return v * h.factor() }

// time scales a duration measured in the phase to the nominal host.
func (h *hostSpeed) time(v float64) float64 { return v / h.factor() }
