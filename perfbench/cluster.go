package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"neofog/internal/router"
	"neofog/internal/serve"
)

// shards is the cluster width; each shard runs max(1, nproc/2) workers,
// so the workers together match the machine's cores.
const shards = 2

// cluster is the in-process deployment under test: shards serve daemons
// behind one router, each on its own loopback ephemeral port, with the
// disk tier on in a fresh directory, the JSON transport and no tenants.
type cluster struct {
	dir     string
	servers []*serve.Server
	https   []*http.Server
	serving sync.WaitGroup
	rt      *router.Router
	url     string
}

// bootCluster starts a cluster under root. With a tracer it wraps every
// public seam: each shard's handler and filesystem, the router's
// handler and its forwarding client.
func bootCluster(root string, workers int, tr *tracer) (c *cluster, err error) {
	dir, err := os.MkdirTemp(root, "cluster-")
	if err != nil {
		return nil, err
	}
	c = &cluster{dir: dir}
	defer func() {
		if err != nil {
			c.close()
		}
	}()
	var rcfg router.Config
	for i := 0; i < shards; i++ {
		cfg := serve.Config{Workers: workers, CacheDir: filepath.Join(dir, fmt.Sprintf("shard-%d", i))}
		if tr != nil {
			cfg.FS = traceFS{t: tr, shard: int8(i), next: serve.OSFS()}
		}
		srv, err := serve.New(cfg)
		if err != nil {
			return c, fmt.Errorf("shard %d: %w", i, err)
		}
		c.servers = append(c.servers, srv)
		h := srv.Handler()
		if tr != nil {
			h = tr.wrapShard(h, int8(i))
		}
		url, err := c.listen(h)
		if err != nil {
			return c, fmt.Errorf("shard %d: %w", i, err)
		}
		rcfg.Shards = append(rcfg.Shards, router.Shard{Name: fmt.Sprintf("shard-%d", i), URL: url})
	}
	if tr != nil {
		rcfg.Client = &http.Client{Transport: forwardTransport{t: tr, next: http.DefaultTransport}}
	}
	if c.rt, err = router.New(rcfg); err != nil {
		return c, err
	}
	h := c.rt.Handler()
	if tr != nil {
		h = tr.wrapRouter(h)
	}
	if c.url, err = c.listen(h); err != nil {
		return c, fmt.Errorf("router: %w", err)
	}
	return c, nil
}

func (c *cluster) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	c.https = append(c.https, hs)
	c.serving.Add(1)
	go func() {
		defer c.serving.Done()
		hs.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return "http://" + ln.Addr().String(), nil
}

// close stops the listeners, the router's prober and the shards'
// workers, waits for all of them, and removes the cluster's directory.
func (c *cluster) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	var errs []error
	for i := len(c.https) - 1; i >= 0; i-- { // router first, then the shards
		if err := c.https[i].Shutdown(ctx); err != nil {
			errs = append(errs, err)
		}
	}
	c.serving.Wait()
	if c.rt != nil {
		c.rt.Close()
	}
	for _, srv := range c.servers {
		if err := srv.Drain(ctx); err != nil {
			errs = append(errs, err)
		}
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	if err := os.RemoveAll(c.dir); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}
