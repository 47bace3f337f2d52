package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rpcrank/internal/cluster"
	"rpcrank/internal/registry"
	"rpcrank/internal/server"
)

// node is one running rpcd the workloads talk to.
type node struct {
	url string
	// pid is the process whose CPU time and memory the node uses.
	pid int
	// log is the daemon's log file; empty for an in-process node.
	log  string
	stop func()
}

// starter starts n rpcd nodes; with n > 1 they form one serving group.
type starter func(n int) ([]*node, error)

func stopAll(nodes []*node) {
	for _, n := range nodes {
		n.stop()
	}
}

// buildRPCD compiles ./cmd/rpcd of the tree under test into dir.
func buildRPCD(ctx context.Context, dir string) (string, error) {
	bin := filepath.Join(dir, "rpcd")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/rpcd")
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building rpcd: %v\n%s", err, out.Bytes())
	}
	return bin, nil
}

// freeAddrs reserves n loopback ports. Every address must be known before
// the first node starts, because each node is told its peers' addresses.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs[i] = ln.Addr().String()
		defer ln.Close()
	}
	return addrs, nil
}

// peerURLs gives node i of addrs the -peers list of every other node.
func peerURLs(addrs []string, i int) []string {
	var peers []string
	for j, a := range addrs {
		if j != i {
			peers = append(peers, "http://"+a)
		}
	}
	return peers
}

// subprocesses starts rpcd binaries from bin, each with a fresh model
// directory under dir and GOMAXPROCS pinned to procs.
func subprocesses(bin, dir string, procs int) starter {
	return func(n int) ([]*node, error) {
		addrs, err := freeAddrs(n)
		if err != nil {
			return nil, err
		}
		var nodes []*node
		for i, addr := range addrs {
			nd, err := startRPCD(bin, dir, procs, addr, peerURLs(addrs, i))
			if err != nil {
				stopAll(nodes)
				return nil, err
			}
			nodes = append(nodes, nd)
		}
		return nodes, nil
	}
}

func startRPCD(bin, dir string, procs int, addr string, peers []string) (*node, error) {
	home, err := os.MkdirTemp(dir, "node-")
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(home, "rpcd.log"))
	if err != nil {
		os.RemoveAll(home)
		return nil, err
	}
	args := []string{"-addr", addr, "-model-dir", filepath.Join(home, "models"), "-workers", "0"}
	if len(peers) > 0 {
		args = append(args, "-peers", strings.Join(peers, ","), "-advertise", "http://"+addr)
	}
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	cmd.Stdout, cmd.Stderr = logf, logf
	// The kernel kills the daemon if this process dies without cleaning up.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		os.RemoveAll(home)
		return nil, fmt.Errorf("starting rpcd: %w", err)
	}
	exited := make(chan struct{})
	go func() {
		cmd.Wait()
		close(exited)
	}()
	stop := func() {
		cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-exited:
		case <-time.After(10 * time.Second):
			cmd.Process.Kill()
			<-exited
		}
		logf.Close()
		os.RemoveAll(home)
	}
	return &node{url: "http://" + addr, pid: cmd.Process.Pid, log: logf.Name(), stop: stop}, nil
}

// logTail returns the end of a node's log, for error reports.
func logTail(n *node) string {
	if n.log == "" {
		return ""
	}
	raw, err := os.ReadFile(n.log)
	if err != nil {
		return ""
	}
	return string(raw[max(0, len(raw)-2048):])
}

// stack is rpcd's serving stack built in this process: a registry, a
// server with cmd/rpcd's default options, and an http.Server with rpcd's
// timeouts on a loopback listener. wrap, when non-nil, wraps the handler.
type stack struct {
	reg  *registry.Registry
	api  *server.Server
	cl   *cluster.Cluster
	hs   *http.Server
	url  string
	done chan struct{}
}

func newStack(dir string, ln net.Listener, peers []string, wrap func(http.Handler) http.Handler) (*stack, error) {
	reg, err := registry.Open(dir, registry.DefaultMaxLoaded)
	if err != nil {
		return nil, err
	}
	url := "http://" + ln.Addr().String()
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	s := &stack{reg: reg, url: url, done: make(chan struct{})}
	if len(peers) > 0 {
		s.cl, err = cluster.New(cluster.Options{Self: url, Peers: peers, Registry: reg, Logger: quiet})
		if err != nil {
			reg.Close()
			return nil, err
		}
	}
	s.api = server.New(reg, server.Options{
		MaxBodyBytes: 32 << 20,
		MaxBatchRows: 1_000_000,
		MaxDeadline:  time.Minute,
		Logger:       quiet,
		Cluster:      s.cl,
	})
	var h http.Handler = s.api
	if wrap != nil {
		h = wrap(h)
	}
	s.hs = &http.Server{
		Handler:           h,
		ReadTimeout:       30 * time.Second,
		ReadHeaderTimeout: 10 * time.Second,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       time.Minute,
	}
	go func() {
		defer close(s.done)
		s.hs.Serve(ln)
	}()
	return s, nil
}

func (s *stack) close() {
	s.hs.Close()
	<-s.done
	s.api.Close()
	if s.cl != nil {
		s.cl.Close()
	}
	s.reg.Close()
}

// inProcess starts stacks in this process, each over a fresh directory
// under dir. Their CPU time and memory are this process's.
func inProcess(dir string) starter {
	return func(n int) ([]*node, error) {
		lns := make([]net.Listener, n)
		addrs := make([]string, n)
		for i := range lns {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				for _, l := range lns[:i] {
					l.Close()
				}
				return nil, err
			}
			lns[i], addrs[i] = ln, ln.Addr().String()
		}
		var nodes []*node
		for i, ln := range lns {
			home, err := os.MkdirTemp(dir, "node-")
			if err == nil {
				var st *stack
				if st, err = newStack(home, ln, peerURLs(addrs, i), nil); err == nil {
					nodes = append(nodes, &node{url: st.url, pid: os.Getpid(), stop: func() {
						st.close()
						os.RemoveAll(home)
					}})
					continue
				}
			}
			for _, l := range lns[i:] {
				l.Close()
			}
			stopAll(nodes)
			return nil, err
		}
		return nodes, nil
	}
}

// clockTick is the unit of utime and stime in /proc/<pid>/stat (USER_HZ,
// 100 on every Linux configuration Go supports).
const clockTick = 10 * time.Millisecond

// cpuTime sums user and system CPU time over the distinct pids.
func cpuTime(pids []int) (time.Duration, error) {
	var total time.Duration
	for _, pid := range distinct(pids) {
		raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
		if err != nil {
			return 0, err
		}
		// Fields after the command name, which may hold spaces, start at
		// field 3 (state); utime and stime are fields 14 and 15.
		i := bytes.LastIndexByte(raw, ')')
		if i < 0 {
			return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
		}
		f := strings.Fields(string(raw[i+1:]))
		if len(f) < 13 {
			return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
		}
		for _, s := range f[11:13] {
			ticks, err := strconv.ParseInt(s, 10, 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%d/stat: %w", pid, err)
			}
			total += time.Duration(ticks) * clockTick
		}
	}
	return total, nil
}

// peakRSS returns the highest VmHWM over the pids, in KiB.
func peakRSS(pids []int) (int64, error) {
	var peak int64
	for _, pid := range distinct(pids) {
		raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
		if err != nil {
			return 0, err
		}
		_, rest, ok := strings.Cut(string(raw), "\nVmHWM:")
		rest, _, _ = strings.Cut(rest, "\n")
		kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
		if !ok || err != nil {
			return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
		}
		peak = max(peak, kb)
	}
	return peak, nil
}

func distinct(pids []int) []int {
	var out []int
	for _, p := range pids {
		seen := false
		for _, q := range out {
			seen = seen || p == q
		}
		if !seen {
			out = append(out, p)
		}
	}
	return out
}
