package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
)

// Transport carries one worker→coordinator RPC: a POST to a
// coordinator-relative path, decoding a JSON response into out (when non-nil
// and the status is 200). A []byte body is a binary frame sent verbatim (the
// checkpoint commit); any other body is sent as JSON. Posted bodies are
// never modified, so a Transport may deliver one more than once. It is the
// single seam between a worker and its
// coordinator, which is what lets the chaos harness interpose a hostile
// network — drops, delays, duplicates, partitions — without touching either
// endpoint's logic.
//
// A Transport returns (status, nil) when a response arrived, whatever the
// status code, and (0, err) when delivery itself failed. Implementations
// must be safe for concurrent use: one worker posts heartbeats, progress and
// completions from independent goroutines.
type Transport interface {
	Post(ctx context.Context, path string, body, out any) (status int, err error)
}

// HTTPTransport is the production Transport: POSTs against a coordinator
// base URL, application/octet-stream for a []byte body and
// application/json for anything else.
type HTTPTransport struct {
	// Base is the coordinator's base URL, e.g. "http://host:8080".
	Base string
	// Client is the HTTP client (default a fresh one; it must not set a
	// global timeout — lease long-polls outlive typical timeouts).
	Client *http.Client
}

// NewHTTPTransport returns an HTTPTransport for the base URL. A nil client
// gets a fresh timeout-free one.
func NewHTTPTransport(base string, client *http.Client) *HTTPTransport {
	if client == nil {
		client = &http.Client{}
	}
	return &HTTPTransport{Base: base, Client: client}
}

// Post implements Transport.
func (t *HTTPTransport) Post(ctx context.Context, path string, body, out any) (int, error) {
	data, raw := body.([]byte)
	ctype := "application/octet-stream"
	if !raw {
		var err error
		if data, err = json.Marshal(body); err != nil {
			return 0, err
		}
		ctype = "application/json"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, t.Base+path, bytes.NewReader(data))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", ctype)
	resp, err := t.Client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(io.LimitReader(resp.Body, maxDispatchBody)).Decode(out); err != nil {
			return resp.StatusCode, err
		}
		return resp.StatusCode, nil
	}
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
	return resp.StatusCode, nil
}
