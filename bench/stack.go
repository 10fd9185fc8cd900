package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/stream"
	"repro/internal/wal"
)

// stack is the server assembled in-process from public constructors, the
// way cmd/trajserver assembles it, so that the traced run can put a
// decorator at every public interface boundary.
type stack struct {
	srv     *server.Server
	ln      net.Listener
	st      *store.Store
	durable *wal.DurableStore // nil without a WAL
	reg     *metrics.Registry // private: counters are read at the same boundaries as spans
	served  chan error
}

// buildStack assembles the workload's server on a loopback listener. With a
// tracer the three decorators are installed: a stream.Compressor wrapper
// through Options.NewCompressor, a fault.FS wrapper under the WAL, and a
// server.Backend wrapper over the store.
func buildStack(w *workload, walPath string, t *tracer) (*stack, error) {
	factory, err := stream.ParseFactory(w.compress)
	if err != nil {
		return nil, err
	}
	k := &stack{reg: metrics.NewRegistry(), served: make(chan error, 1)}
	fsys := fault.NewFS(fault.OS, fault.NewSet(k.reg))
	if t != nil {
		factory = t.wrapFactory(factory)
		fsys = &tracedFS{inner: fsys, t: t}
	}
	opts := store.Options{
		NewCompressor: factory, CellSize: 1000, Index: store.IndexGrid,
		SealEps: w.sealEps, SealBlockPoints: w.sealBlock, Metrics: k.reg,
	}
	var backend server.Backend
	if walPath != "" {
		k.durable, err = wal.OpenDurableFS(fsys, walPath, opts)
		if err != nil {
			return nil, err
		}
		k.durable.SetSyncEvery(0)
		k.st = k.durable.Store
		backend = k.durable
	} else {
		k.st = store.New(opts)
		backend = k.st
	}
	if t != nil {
		backend = &tracedBackend{inner: backend, t: t}
	}
	k.srv = server.New(backend)
	k.srv.UseRegistry(k.reg)
	k.srv.WriteTimeout = 30 * time.Second
	k.ln, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = k.closeStore() // the listen error is the one to report
		return nil, err
	}
	go func() { k.served <- k.srv.Serve(k.ln) }()
	return k, nil
}

func (k *stack) addr() string { return k.ln.Addr().String() }

// counter reads one counter of the private registry.
func (k *stack) counter(name string) float64 {
	return float64(k.reg.Counter(name).Value())
}

func (k *stack) closeStore() error {
	if k.durable != nil {
		return k.durable.Close()
	}
	return nil
}

// close drains the server and closes the WAL; it returns once the accept
// loop has ended.
func (k *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), exitTimeout)
	defer cancel()
	err := k.srv.Shutdown(ctx)
	select {
	case serr := <-k.served:
		if !errors.Is(serr, server.ErrServerClosed) && err == nil {
			err = serr
		}
	case <-time.After(exitTimeout):
		if err == nil {
			err = fmt.Errorf("in-process server did not stop within %s", exitTimeout)
		}
	}
	if cerr := k.closeStore(); err == nil {
		err = cerr
	}
	return err
}
