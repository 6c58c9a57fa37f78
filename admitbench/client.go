package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
)

// client is one HTTP connection to the daemon: the writer and the reader
// each own one, so the daemon never sees more than two.
type client struct {
	base string
	hc   *http.Client
	tr   *tracer
	ids  *atomic.Int64 // request IDs, shared by both clients
}

func newClient(base string, tr *tracer, ids *atomic.Int64) *client {
	t := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{base: base, hc: &http.Client{Transport: t}, tr: tr, ids: ids}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and returns the status and body. role names the
// request's trace role; "" keeps it out of the timed roles.
func (c *client) do(method, path string, body any, role string) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	si := -1
	if c.tr != nil {
		id := c.ids.Add(1)
		name := "client.other"
		if role != "" {
			name = "client." + role
		}
		si = c.tr.begin(name, id, -1)
		req.Header.Set(hdrReq, strconv.FormatInt(id, 10))
		req.Header.Set(hdrParent, strconv.Itoa(si))
		req.Header.Set(hdrRole, role)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		if si >= 0 {
			c.tr.end(si, 0)
		}
		return 0, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if si >= 0 {
		c.tr.end(si, len(data))
	}
	return resp.StatusCode, data, err
}

// getJSON fetches path outside the timed roles and decodes it into out.
func (c *client) getJSON(path string, out any) error {
	status, data, err := c.do(http.MethodGet, path, nil, "")
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, status, data)
	}
	return json.Unmarshal(data, out)
}
