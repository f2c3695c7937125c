package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
)

// The HTTP layer is a thin JSON veneer over the Server API. Values cross
// the wire as JSON numbers, which Go encodes in the shortest
// round-trippable form and decodes back to the identical float64 bits for
// every finite value — so the bitwise serving doctrine survives the wire
// format (pinned by the HTTP round-trip test).
//
//	GET  /v1/models                      -> []ModelInfo
//	GET  /v1/models/{name}/stats         -> Stats
//	POST /v1/models/{name}/logpsi        {"configs": [[0,1,...],...]}
//	POST /v1/models/{name}/energy        {"configs": [[0,1,...],...]}
//	POST /v1/models/{name}/sample        {"count": 8, "seed": 42}
//	POST /v1/models/{name}/swap          {"path": "model.ckpt"}
//	POST /v1/maxcut                      MaxCutRequest
//	GET  /healthz

// configsRequest is the JSON body of the logpsi/energy endpoints.
type configsRequest struct {
	Configs [][]int `json:"configs"`
}

// valuesResponse is the JSON body of the logpsi/energy responses.
type valuesResponse struct {
	Values []float64 `json:"values"`
}

// sampleRequest is the JSON body of the sample endpoint.
type sampleRequest struct {
	Count int    `json:"count"`
	Seed  uint64 `json:"seed"`
}

// sampleResponse is the JSON body of the sample response.
type sampleResponse struct {
	Configs [][]int `json:"configs"`
}

// swapRequest is the JSON body of the swap endpoint.
type swapRequest struct {
	Path string `json:"path"`
}

// errorResponse is the JSON body of every non-2xx response.
type errorResponse struct {
	Error string `json:"error"`
}

// statusOf maps endpoint errors to HTTP status codes.
func statusOf(err error) int {
	switch {
	case errors.Is(err, ErrUnknownModel):
		return http.StatusNotFound
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrBadRequest), errors.Is(err, ErrUnsupported):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

// writeJSON marshals v before the status line goes out, so a value
// encoding/json refuses — a non-finite amplitude or energy — is a 500 with
// the error JSON rather than a 200 with a truncated body. A healthy
// response is the bytes json.Encoder would write, trailing newline included.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		status = http.StatusInternalServerError
		body, _ = json.Marshal(errorResponse{Error: "encode response: " + err.Error()})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(append(body, '\n'))
}

func writeErr(w http.ResponseWriter, err error) {
	writeJSON(w, statusOf(err), errorResponse{Error: err.Error()})
}

// maxBodyBytes caps a request body before it is buffered. The largest
// legitimate payloads (hundreds of configuration rows, dense Max-Cut edge
// lists at the MaxCutNodes cap) fit comfortably; anything bigger is shed
// with 413 instead of being read to arbitrary length.
const maxBodyBytes = 8 << 20

// decodeBody decodes a body that is exactly one JSON value, allowing
// surrounding whitespace: trailing bytes — garbage or a second value — are
// a 400 like any other malformed body, never silently dropped.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		if _, err = dec.Token(); err == io.EOF {
			return true
		} else if err == nil {
			err = errors.New("trailing data after the JSON value")
		}
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeJSON(w, http.StatusRequestEntityTooLarge,
			errorResponse{Error: fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit)})
		return false
	}
	writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad JSON: " + err.Error()})
	return false
}

// NewHandler wraps a Server in the JSON HTTP API above. The handler does
// no locking of its own: all concurrency control lives in the Server.
func NewHandler(s *Server) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /v1/models", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Models())
	})
	mux.HandleFunc("GET /v1/models/{name}/stats", func(w http.ResponseWriter, r *http.Request) {
		st, err := s.ModelStats(r.PathValue("name"))
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("POST /v1/models/{name}/logpsi", func(w http.ResponseWriter, r *http.Request) {
		var req configsRequest
		if !decodeBody(w, r, &req) {
			return
		}
		vals, err := s.LogPsi(r.Context(), r.PathValue("name"), req.Configs)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, valuesResponse{Values: vals})
	})
	mux.HandleFunc("POST /v1/models/{name}/energy", func(w http.ResponseWriter, r *http.Request) {
		var req configsRequest
		if !decodeBody(w, r, &req) {
			return
		}
		vals, err := s.LocalEnergy(r.Context(), r.PathValue("name"), req.Configs)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, valuesResponse{Values: vals})
	})
	mux.HandleFunc("POST /v1/models/{name}/sample", func(w http.ResponseWriter, r *http.Request) {
		var req sampleRequest
		if !decodeBody(w, r, &req) {
			return
		}
		rows, err := s.Sample(r.Context(), r.PathValue("name"), req.Count, req.Seed)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, sampleResponse{Configs: rows})
	})
	mux.HandleFunc("POST /v1/models/{name}/swap", func(w http.ResponseWriter, r *http.Request) {
		var req swapRequest
		if !decodeBody(w, r, &req) {
			return
		}
		if err := s.SwapFile(r.Context(), r.PathValue("name"), req.Path); err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]bool{"swapped": true})
	})
	mux.HandleFunc("POST /v1/maxcut", func(w http.ResponseWriter, r *http.Request) {
		var req MaxCutRequest
		if !decodeBody(w, r, &req) {
			return
		}
		res, err := s.SolveMaxCut(r.Context(), req)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, res)
	})
	return mux
}
