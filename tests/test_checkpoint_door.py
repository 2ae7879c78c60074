"""The checkpoint input door, as a property over mutated checkpoint files.

Each example mutates a saved checkpoint by truncation, trailing bytes, header
byte changes (a byte replaced, inserted or deleted) and payload bit flips.
``load_checkpoint`` must return ``MlpParams`` whose vector is the file's last
bytes, or raise a ``ValueError`` whose message starts with the path; any
other exception fails the property.  Three explicit examples pin headers
that need care: one nested past the JSON decoder's depth, dims whose byte
count has more digits than ``str()`` prints, and an integer too long for
``int()`` to parse.
"""

import json
import tempfile
from pathlib import Path

from hypothesis import example, given, strategies as st

from fullkl.model import CHECKPOINT_FORMAT, MlpParams, init_mlp, load_checkpoint, save_checkpoint

with tempfile.TemporaryDirectory() as _tmp:
    save_checkpoint(init_mlp((3, 4, 5), 0), Path(_tmp) / "valid.ckpt")
    VALID = (Path(_tmp) / "valid.ckpt").read_bytes()
HEADER, PAYLOAD = VALID.split(b"\n", 1)


@st.composite
def mutated_checkpoint(draw) -> bytes:
    content = VALID
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["truncate", "append", "header_replace", "header_insert", "header_delete",
                                     "payload_flip"]))
        header_end = content.find(b"\n") + 1 or len(content)  # the header line, its newline included
        if kind == "truncate":
            content = content[:draw(st.integers(0, len(content)))]
        elif kind == "append":
            content += draw(st.binary(min_size=1, max_size=24))
        elif kind.startswith("header") and header_end:
            i = draw(st.integers(0, header_end - 1))
            new = b"" if kind == "header_delete" else bytes([draw(st.integers(0, 255))])
            content = content[:i] + new + content[i + (kind != "header_insert"):]
        elif kind == "payload_flip" and len(content) > header_end:
            i = draw(st.integers(header_end, len(content) - 1))
            content = content[:i] + bytes([content[i] ^ 1 << draw(st.integers(0, 7))]) + content[i + 1:]
    return content


@given(content=mutated_checkpoint())
@example(content=b"[" * 100_000 + b"\n" + PAYLOAD)
@example(content=json.dumps({"dims": [10**4000] * 2, "format": CHECKPOINT_FORMAT}).encode() + b"\n" + PAYLOAD)
@example(content=HEADER.replace(b"[3, 4, 5]", b"[" + b"9" * 5000 + b", 5]") + b"\n" + PAYLOAD)
def test_load_checkpoint_returns_params_or_names_the_path(tmp_path_factory, content):
    path = tmp_path_factory.getbasetemp() / "door.ckpt"
    path.write_bytes(content)
    try:
        params = load_checkpoint(path)
    except ValueError as exc:
        assert str(exc).startswith(f"{path}: "), str(exc)
    else:
        assert isinstance(params, MlpParams)
        assert params.vec.astype("<f8").tobytes() == content[len(content) - 8 * params.size:]
