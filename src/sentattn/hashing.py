"""Pinned 64-bit FNV-1a hashing.

Every deterministic id-to-bucket decision in the pipeline (dataset split
membership, token hashing) routes through these functions so results
are identical across runs and platforms. Nothing here is cached: the
tokenizer memoizes whole words' ids (`segmenter._WordIds`).
"""

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
_MASK = 0xFFFFFFFFFFFFFFFF
RESERVED_IDS = 4  # token ids below this are reserved (PAD, CLS, SEP, UNK); the hash buckets follow them


def fnv1a64(data: bytes) -> int:
    """FNV-1a over raw bytes, 64-bit wraparound arithmetic."""
    h = FNV_OFFSET
    for b in data:
        h ^= b
        h = (h * FNV_PRIME) & _MASK
    return h


def stable_hash64(seed: int, ident: str) -> int:
    """Hash of the seed's 8 little-endian bytes followed by the id's UTF-8 bytes."""
    return fnv1a64((seed & _MASK).to_bytes(8, "little") + ident.encode("utf-8"))


def token_bucket(token: str, v_buckets: int) -> int:
    """Map a token into the id space [RESERVED_IDS, RESERVED_IDS + v_buckets)."""
    return RESERVED_IDS + fnv1a64(token.encode("utf-8")) % v_buckets
