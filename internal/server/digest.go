package server

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro/internal/core"
	"repro/internal/tensor"
)

// Cache keys. A decomposition result is fully determined by the input
// tensor's bytes and the canonical form of its config (the library is
// deterministic for a fixed seed and bit-identical across worker counts),
// so (tensor digest, Config.Canonical) is a sound cache key: two requests
// with the same key would receive bit-identical results anyway.

// tensorDigest returns the hex SHA-256 of the tensor's .ten serialization.
func tensorDigest(x *tensor.Dense) (string, error) {
	h := sha256.New()
	if _, err := x.WriteTo(h); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// cacheKey combines a content digest with the canonical config string.
func cacheKey(digest string, cfg core.Config) string {
	return digest + "|" + cfg.Canonical()
}

// rangeKey is the single builder for range-query cache keys: the stream
// session and the window bounds. The session stands for everything else a
// range result depends on — its config (with the stamped kernel-profile
// fingerprint) and the steps it holds, which appends never change — and
// its ID is never reused within a process. Range results are never
// journaled, so the key need not survive a restart.
func rangeKey(streamID string, t0, t1 int) string {
	return fmt.Sprintf("stream:%s|range:%d-%d", streamID, t0, t1)
}
