"""Model configuration for the perception network."""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields


# The JSON types a record may hold for each field annotation; a tuple field
# is a two-item list of them. A bool is not a number here.
_RECORD_TYPES = {"int": (int,), "float": (int, float), "str": (str,),
                 "tuple[int, int]": (int,), "tuple[float, float]": (int, float)}


def typed_fields(cls, rec: dict) -> list:
    """The values of dataclass ``cls``'s fields in ``rec``, in field order,
    with tuple fields made tuples. Raises KeyError for a missing field and
    TypeError for a value whose type is not the field's annotation."""
    args = []
    for f in fields(cls):
        value, kinds = rec[f.name], _RECORD_TYPES[f.type]
        pair = f.type.startswith("tuple")
        ok = (type(value) is list and len(value) == 2
              and all(type(v) in kinds for v in value)) if pair else type(value) in kinds
        if not ok:
            raise TypeError(f"{cls.__name__} field {f.name!r} must be {f.type}, "
                            f"got {value!r}")
        args.append(tuple(value) if pair else value)
    return args


ADAPTER_TYPES = ("dora", "lora", "ia3", "none")
FUSION_TYPES = ("cross-attention", "transformer")


@dataclass(frozen=True)
class ModelConfig:
    embed_dim: int = 64            # D
    num_heads: int = 1
    depth: int = 2                 # self-attention blocks per tower
    patch_size: int = 8            # ps
    image_size: int = 112          # H = W (model input, after center crop)
    max_text_len: int = 24         # T
    dora_rank: int = 4             # r
    adapter: str = "dora"
    fusion: str = "cross-attention"
    mlp_ratio: int = 2
    seed: int = 7

    def __post_init__(self):
        typed_fields(type(self), vars(self))
        for name in ("embed_dim", "depth", "num_heads", "patch_size", "image_size",
                     "max_text_len", "dora_rank", "mlp_ratio"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.patch_size < 2:        # the decoder upsamples by it
            raise ValueError(f"patch_size must be at least 2, got {self.patch_size}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.embed_dim % self.num_heads != 0:
            raise ValueError(f"embed_dim {self.embed_dim} not divisible by "
                             f"num_heads {self.num_heads}")
        if self.image_size % self.patch_size != 0:
            raise ValueError(f"image size {self.image_size} not divisible by "
                             f"patch size {self.patch_size}")
        if self.adapter not in ADAPTER_TYPES:
            raise ValueError(f"adapter must be one of {ADAPTER_TYPES}")
        if self.fusion not in FUSION_TYPES:
            raise ValueError(f"fusion must be one of {FUSION_TYPES}")

    @property
    def head_dim(self) -> int:     # d_h
        return self.embed_dim // self.num_heads

    @property
    def grid_side(self) -> int:
        return self.image_size // self.patch_size

    @property
    def num_patches(self) -> int:
        return self.grid_side ** 2

    @property
    def patch_dim(self) -> int:
        return self.patch_size * self.patch_size * 4   # RGB-D patches

    def upsample_factors(self) -> tuple[int, ...]:
        """Per-stage upsampling factors whose product is the patch size."""
        factors, rem = [], self.patch_size
        while rem > 1:
            f = 2 if rem % 2 == 0 else rem
            factors.append(f)
            rem //= f
        return tuple(factors)

    def to_record(self) -> dict:
        return asdict(self)

    @classmethod
    def from_record(cls, rec: dict) -> "ModelConfig":
        return cls(**rec)
