package api

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// Client talks the v1 wire contract to a pncd server. The zero-cost
// way to drive a coordinator: tests, examples, and operators all go
// through it, so the wire types stay the single source of truth.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient returns a client for the server at baseURL (e.g.
// "http://127.0.0.1:8080"). A nil hc uses http.DefaultClient.
func NewClient(baseURL string, hc *http.Client) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	return &Client{base: strings.TrimRight(baseURL, "/"), hc: hc}
}

// do issues one request; in is JSON-encoded when non-nil, out is
// JSON-decoded when non-nil. Non-2xx responses decode into *Error. An
// out with its own codec (the plan-bearing responses) decodes the
// whole body through its UnmarshalJSON, skipping encoding/json's
// scanner.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		buf, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return DecodeError(resp)
	}
	if out == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil
	}
	if u, ok := out.(json.Unmarshaler); ok {
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		return u.UnmarshalJSON(b)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Health fetches /healthz. A draining server answers 503 but still
// reports its state; that is a valid Health, not an error.
func (c *Client) Health(ctx context.Context) (Health, error) {
	var h Health
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return h, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
		return h, DecodeError(resp)
	}
	err = json.NewDecoder(resp.Body).Decode(&h)
	return h, err
}

// Metrics fetches the raw /metrics exposition.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", DecodeError(resp)
	}
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}

// CreateCell admits a new cell and returns its status (including the
// assigned ID).
func (c *Client) CreateCell(ctx context.Context, spec CellSpec) (CellStatus, error) {
	var out CreateCellResponse
	err := c.do(ctx, http.MethodPost, PathPrefix+"/cells", spec, &out)
	return out.Cell, err
}

// DeleteCell evicts a cell. Its ID is never reused.
func (c *Client) DeleteCell(ctx context.Context, id int) error {
	return c.do(ctx, http.MethodDelete, cellPath(id), nil, nil)
}

// Cells lists every live cell.
func (c *Client) Cells(ctx context.Context) ([]CellStatus, error) {
	var out []CellStatus
	err := c.do(ctx, http.MethodGet, PathPrefix+"/cells", nil, &out)
	return out, err
}

// Cell fetches one cell's status.
func (c *Client) Cell(ctx context.Context, id int) (CellStatus, error) {
	var out CellStatus
	err := c.do(ctx, http.MethodGet, cellPath(id), nil, &out)
	return out, err
}

// SubmitDemands queues per-link demand reports for the cell's next
// epoch. Reports are validated and encoded immediately; delivery
// happens at the next step.
func (c *Client) SubmitDemands(ctx context.Context, id int, demands []Demand) (int, error) {
	var out SubmitResponse
	err := c.do(ctx, http.MethodPost, cellPath(id)+"/demands", demands, &out)
	return out.Accepted, err
}

// SubmitCSI queues channel-state updates for the cell's next epoch.
func (c *Client) SubmitCSI(ctx context.Context, id int, updates []CSI) (int, error) {
	var out SubmitResponse
	err := c.do(ctx, http.MethodPost, cellPath(id)+"/csi", updates, &out)
	return out.Accepted, err
}

// StepCell runs one scheduling epoch for one cell and returns its
// report.
func (c *Client) StepCell(ctx context.Context, id int) (EpochReport, error) {
	var out EpochReport
	err := c.do(ctx, http.MethodPost, cellPath(id)+"/step", nil, &out)
	return out, err
}

// StepAll runs one scheduling epoch for every live cell across the
// server's worker pool and returns all reports.
func (c *Client) StepAll(ctx context.Context) ([]EpochReport, error) {
	var out StepResponse
	err := c.do(ctx, http.MethodPost, PathPrefix+"/step", nil, &out)
	return out.Reports, err
}

// Plan fetches the cell's current plan (last-known-good with its age
// during degradation). A cell that has never produced a plan answers
// 404.
func (c *Client) Plan(ctx context.Context, id int) (PlanResponse, error) {
	var out PlanResponse
	err := c.do(ctx, http.MethodGet, cellPath(id)+"/plan", nil, &out)
	return out, err
}

// Reports fetches the cell's retained epoch reports with epoch >
// since (pass -1 for all retained).
func (c *Client) Reports(ctx context.Context, id int, since int64) ([]EpochReport, error) {
	var out ReportList
	path := fmt.Sprintf("%s/reports?since=%d", cellPath(id), since)
	err := c.do(ctx, http.MethodGet, path, nil, &out)
	return out, err
}

// StreamReports follows the cell's report stream as JSONL: each
// retained report with epoch > since is delivered, then new reports
// as steps land, until ctx is canceled or the server drains. The
// callback runs on the stream goroutine; returning a non-nil error
// stops the stream.
func (c *Client) StreamReports(ctx context.Context, id int, since int64, fn func(EpochReport) error) error {
	path := fmt.Sprintf("%s%s/reports?since=%d&follow=1", c.base, cellPath(id), since)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return DecodeError(resp)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var rep EpochReport
		if err := rep.UnmarshalJSON(line); err != nil {
			return fmt.Errorf("api: bad stream line: %w", err)
		}
		if err := fn(rep); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil && ctx.Err() == nil {
		return err
	}
	return nil
}

func cellPath(id int) string {
	return PathPrefix + "/cells/" + strconv.Itoa(id)
}
