package config

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
)

// MarshalJSON encodes the commit mode as its name ("rob",
// "checkpoint", "adaptive", "oracle"). Names outside CommitModes are
// rejected so an invalid policy can never acquire a canonical form (and
// thus a cache fingerprint).
func (m CommitMode) MarshalJSON() ([]byte, error) {
	if !slices.Contains(CommitModes[:], m) {
		return nil, fmt.Errorf("config: cannot encode unknown commit policy %q", string(m))
	}
	return json.Marshal(string(m))
}

// UnmarshalJSON implements json.Unmarshaler for the string form,
// validated against CommitModes.
func (m *CommitMode) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("config: commit policy must be a string: %w", err)
	}
	mode, err := ParseCommitMode(s)
	if err != nil {
		return err
	}
	*m = mode
	return nil
}

// CanonicalJSON returns the canonical encoding of the configuration:
// compact JSON with fields in declaration order and the commit mode as
// a string. This is the config half of a simulation fingerprint
// (sim.Fingerprint) and the API wire format, so it must not drift — a
// golden-file test pins the encoding of Default().
//
// The configuration is validated first: an invalid configuration has no
// canonical form (it could never produce a result worth caching).
func (c Config) CanonicalJSON() ([]byte, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return json.Marshal(c)
}

// ParseJSON decodes and validates a configuration. Unknown fields are
// rejected: a client sending a field this server does not model must
// hear about it, not silently get the default behaviour (and a wrong
// cache key).
func ParseJSON(data []byte) (Config, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var c Config
	if err := dec.Decode(&c); err != nil {
		return Config{}, fmt.Errorf("config: parse: %w", err)
	}
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}
