package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// Handler serves the fabric protocol: POST /fabric/v1/{join,lease,result}
// with JSON bodies. Mount it alongside the obs endpoints (cmd/spe serves
// both from one listener) or on its own server. Every body is bounded
// (smallBodyLimit, resultBodyLimit); a larger body gets 413.
func (c *Coordinator) Handler() http.Handler {
	return c.handler(resultBodyLimit)
}

// handler serves the protocol with result bodies of at most resultLimit
// bytes.
func (c *Coordinator) handler(resultLimit int64) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(apiPrefix+"join", handleJSON(c.Join, smallBodyLimit))
	mux.HandleFunc(apiPrefix+"lease", handleJSON(c.Lease, smallBodyLimit))
	mux.HandleFunc(apiPrefix+"result", handleJSON(c.Result, resultLimit))
	return mux
}

// Request body bounds. Join and lease bodies carry only IDs and a count:
// at most 52 bytes on the benchmark workloads. A result body carries a
// shard's variant outcomes, and each wrong-output signature quotes the
// compiled and the expected output in full. Measured largest result
// bodies: 65 KB on the paper seeds across all four releases at the
// default ShardSize, 10 KB on the region corpus at ShardSize 4, and
// 28-30 KB on generated 60-file corpora; a program printing about 1 MB
// that one seeded bug gets wrong at -O0 in all four releases made a
// 14.9 MB body (eight 1.86 MB signatures). The result bound leaves over
// four times that. A worker reports a refused result as a failure of
// its task, naming the task and its corpus file (Worker.execute).
const (
	smallBodyLimit  = 64 << 10
	resultBodyLimit = 64 << 20
)

// handleJSON adapts one coordinator method to an HTTP endpoint whose
// request bodies may be at most limit bytes.
func handleJSON[Req, Resp any](fn func(context.Context, *Req) (*Resp, error), limit int64) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		var req Req
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(&req); err != nil {
			if errors.As(err, new(*http.MaxBytesError)) {
				http.Error(w, fmt.Sprintf("request body exceeds the %d-byte bound of %s", limit, r.URL.Path), http.StatusRequestEntityTooLarge)
				return
			}
			http.Error(w, fmt.Sprintf("bad request: %v", err), http.StatusBadRequest)
			return
		}
		resp, err := fn(r.Context(), &req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(resp)
	}
}

// errTooLarge marks a 413 reply: the coordinator refused a body over its
// bound.
var errTooLarge = errors.New("body over the coordinator's bound")

// httpTransport is the worker-side client for a coordinator's Handler.
type httpTransport struct {
	base   string
	client *http.Client
}

// Dial returns a Transport speaking to the coordinator at addr
// ("host:port" or a full http:// URL). The client enforces no global
// timeout — lease execution windows are the protocol's deadline — but
// individual calls still honor their context.
func Dial(addr string) Transport {
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	base = strings.TrimRight(base, "/")
	return &httpTransport{
		base:   base,
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16, IdleConnTimeout: 30 * time.Second}},
	}
}

func (t *httpTransport) Join(ctx context.Context, req *JoinRequest) (*JoinResponse, error) {
	return httpCall[JoinRequest, JoinResponse](ctx, t, "join", req)
}

func (t *httpTransport) Lease(ctx context.Context, req *LeaseRequest) (*LeaseResponse, error) {
	return httpCall[LeaseRequest, LeaseResponse](ctx, t, "lease", req)
}

func (t *httpTransport) Result(ctx context.Context, req *ResultRequest) (*ResultResponse, error) {
	return httpCall[ResultRequest, ResultResponse](ctx, t, "result", req)
}

// httpCall posts one JSON request and decodes the JSON reply.
func httpCall[Req, Resp any](ctx context.Context, t *httpTransport, endpoint string, req *Req) (*Resp, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("fabric: encode %s: %w", endpoint, err)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, t.base+apiPrefix+endpoint, bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("fabric: %s request: %w", endpoint, err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hresp, err := t.client.Do(hreq)
	if err != nil {
		return nil, fmt.Errorf("fabric: %s: %w", endpoint, err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(hresp.Body, 4<<10))
		if hresp.StatusCode == http.StatusRequestEntityTooLarge {
			return nil, fmt.Errorf("fabric: %s: %w: %d bytes: %s", endpoint, errTooLarge, len(body), strings.TrimSpace(string(msg)))
		}
		return nil, fmt.Errorf("fabric: %s: %s: %s", endpoint, hresp.Status, strings.TrimSpace(string(msg)))
	}
	var resp Resp
	if err := json.NewDecoder(hresp.Body).Decode(&resp); err != nil {
		return nil, fmt.Errorf("fabric: decode %s reply: %w", endpoint, err)
	}
	return &resp, nil
}
