package main

import (
	"fmt"
	"io"
	"net/http"
	"time"
)

// referenceArg, as the first argument, makes the bench program run the
// reference server instead of a benchmark: see serveReference.
const referenceArg = "reference"

// serveReference is the reference server: a net/http server with rpcd's
// timeouts that answers every request with the request's own body. It
// runs on the listener inherited as file descriptor 3 until its standard
// input closes.
//
// The workloads send it the same requests, over the same clients, in
// slices interleaved with the ones they send rpcd. It does the least a
// Go HTTP service can do with those bytes, so its speed follows the
// host's, and rpcd's numbers divided by its numbers do not: README.md
// shows how far the host's speed moves from one run to the next.
func serveReference(in io.Reader, errOut io.Writer) int {
	ln, err := inheritedListener()
	if err != nil {
		fmt.Fprintln(errOut, "bench: reference:", err)
		return 1
	}
	hs := &http.Server{
		Handler:           http.HandlerFunc(echo),
		ReadTimeout:       30 * time.Second,
		ReadHeaderTimeout: 10 * time.Second,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       time.Minute,
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		hs.Serve(ln)
	}()
	io.Copy(io.Discard, in)
	hs.Close()
	<-done
	return 0
}

func echo(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}
