package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

// child is a helper process of the bench program: the bench binary run
// with a mode argument, serving on a loopback listener it inherits as file
// descriptor 3 until its standard input closes.
type child struct {
	url      string
	pid      int
	cmd      *exec.Cmd
	stdin    io.WriteCloser
	out, log bytes.Buffer
}

// startChild starts the bench binary with args, serving on ln. The caller
// may close ln once startChild returns.
func startChild(ln net.Listener, args ...string) (*child, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	f, err := ln.(*net.TCPListener).File()
	if err != nil {
		return nil, err
	}
	defer f.Close()
	c := &child{url: "http://" + ln.Addr().String()}
	c.cmd = exec.Command(exe, args...)
	c.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(runtime.GOMAXPROCS(0)))
	c.cmd.ExtraFiles = []*os.File{f}
	c.cmd.Stdout, c.cmd.Stderr = &c.out, &c.log
	// The kernel kills the child if this process dies without cleaning up.
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if c.stdin, err = c.cmd.StdinPipe(); err != nil {
		return nil, err
	}
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", args[0], err)
	}
	c.pid = c.cmd.Process.Pid
	return c, nil
}

// stop closes the child's input, waits for it to exit and returns what it
// wrote to its standard output.
func (c *child) stop() ([]byte, error) {
	c.stdin.Close()
	exited := make(chan error, 1)
	go func() { exited <- c.cmd.Wait() }()
	var err error
	select {
	case err = <-exited:
	case <-time.After(10 * time.Second):
		c.cmd.Process.Kill()
		err = <-exited
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %v\n%s", c.cmd.Args[1], err, c.log.Bytes())
	}
	return c.out.Bytes(), nil
}

// inheritedListener returns the listener a child inherits.
func inheritedListener() (net.Listener, error) {
	f := os.NewFile(3, "listener")
	defer f.Close()
	ln, err := net.FileListener(f)
	if err != nil {
		return nil, fmt.Errorf("inherited listener: %w", err)
	}
	return ln, nil
}

// runChild runs the helper process that args[0] names, with the rest of
// args. It reports false when args[0] names none.
func runChild(args []string, in io.Reader, out, errOut io.Writer) (int, bool) {
	switch args[0] {
	case stackArg:
		return serveStack(args[1:], in, out, errOut), true
	case referenceArg:
		return serveReference(in, errOut), true
	}
	return 0, false
}
