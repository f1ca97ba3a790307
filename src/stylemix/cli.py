"""Command-line surface.

Subcommands: corpus (synthesize + export the glyph grid), train (typeface
model on a corpus), generate (one image from reference files), eval (metric
table over the four cells), nst (statistic-matching stylization with
trade-off or two-style interpolation), nst-init (fresh stylization
checkpoint).

Every model command runs in float32, the precision the checkpoint stores:
``train``, ``generate`` and ``eval`` through ``FontNet`` and ``nst`` through
``NstNet``, whose parameters are float32 as loaded; ``nst`` reads its images as
float32, so every op of the forward computes in float32.

Exit codes: 0 success, 2 usage error, 3 data/format error (an input too large
for memory included), 4 numeric failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from stylemix import glyphs, netpbm
from stylemix.autodiff import Tensor
from stylemix.fontnet import FontNet, FontNetConfig
from stylemix.glyphs import CorpusError
from stylemix.nst import NstConfig, NstNet
from stylemix.training import (
    AdamState,
    TrainConfig,
    TrainingError,
    check_finite,
    evaluate,
    load_checkpoint,
    save_checkpoint,
    train,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _int_at_least(minimum: int):
    """An argparse type: an integer no smaller than ``minimum``, else a usage error."""
    def parse(text: str) -> int:
        if int(text) < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {text}")
        return int(text)

    parse.__name__ = "int"  # argparse names the type in its message for a non-integer
    return parse


def _unit_fraction(text: str) -> float:
    """An argparse type: a number in [0, 1], else a usage error."""
    if not 0.0 <= float(text) <= 1.0:  # NaN lies in no interval
        raise argparse.ArgumentTypeError(f"must lie in [0, 1], got {text}")
    return float(text)


_unit_fraction.__name__ = "float"


def build_parser() -> argparse.ArgumentParser:
    seed = _int_at_least(0)
    parser = argparse.ArgumentParser(
        prog="stylemix",
        description="Reference-set typeface transfer and statistic-matching stylization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    corpus = sub.add_parser("corpus", help="render and export a synthetic glyph corpus")
    corpus.add_argument("--out", required=True, help="output directory")
    corpus.add_argument("--styles", type=int, default=40)
    corpus.add_argument("--contents", type=int, default=60)
    corpus.add_argument("--size", type=int, default=64)
    corpus.add_argument("--seed", type=seed, default=0)

    tr = sub.add_parser("train", help="train a typeface model on an exported corpus")
    tr.add_argument("--corpus", required=True, help="corpus directory with manifest")
    tr.add_argument("--r", type=int, default=4, help="reference images per set")
    tr.add_argument("--nt", type=int, default=20000, help="training pool size")
    tr.add_argument("--steps", type=int, default=2000)
    tr.add_argument("--lr", type=float, default=2e-4)
    tr.add_argument("--seed", type=seed, default=0)
    tr.add_argument("--out", required=True, help="checkpoint path")

    gen = sub.add_parser("generate", help="generate one glyph image from reference files")
    gen.add_argument("--ckpt", required=True)
    gen.add_argument("--style-refs", nargs="+", required=True, metavar="PGM")
    gen.add_argument("--content-refs", nargs="+", required=True, metavar="PGM")
    gen.add_argument("--out", required=True, help="output PGM path")

    ev = sub.add_parser("eval", help="score a checkpoint over the d1..d4 cells")
    ev.add_argument("--ckpt", required=True)
    ev.add_argument("--corpus", required=True)
    ev.add_argument("--seed", type=seed, default=0)
    ev.add_argument("--per-set", type=_int_at_least(1), default=24)

    nstp = sub.add_parser("nst", help="stylize a content image")
    nstp.add_argument("--style", required=True, metavar="PGM/PPM")
    nstp.add_argument("--content", required=True, metavar="PGM/PPM")
    nstp.add_argument("--ckpt", required=True)
    nstp.add_argument("--alpha", type=_unit_fraction, required=True,
                      help="style strength (trade-off) or interpolation weight, in [0, 1]")
    nstp.add_argument("--interp-style2", metavar="PGM/PPM",
                      help="interpolate between --style and this second style")
    nstp.add_argument("--out", required=True, help="output PPM path")

    ninit = sub.add_parser("nst-init", help="write an untrained stylization checkpoint "
                           "(the CLI trains none; training.train_nst_pair does)")
    ninit.add_argument("--out", required=True)
    ninit.add_argument("--seed", type=seed, default=0)
    return parser


def _cmd_corpus(args) -> int:
    corpus = glyphs.Corpus(glyphs.CorpusConfig(
        n_styles=args.styles, n_contents=args.contents,
        image_size=args.size, seed=args.seed,
    ))
    manifest = glyphs.export_corpus(corpus, args.out)
    print(f"wrote {args.styles * args.contents} images and {manifest.name} to {args.out}")
    return EXIT_OK


def _cmd_train(args) -> int:
    corpus = glyphs.load_corpus(args.corpus)
    config = TrainConfig(steps=args.steps, n_t=args.nt, seed=args.seed)
    # refused before a net --r references wide is built
    glyphs.check_training_draw(corpus, config.n_t, args.r, config.batch_size)
    net = FontNet.initialize(
        FontNetConfig(image_size=corpus.config.image_size, ref_count=args.r), seed=args.seed)
    result = train(config, corpus, net, adam=AdamState(learning_rate=args.lr),
                   log_path=str(args.out) + ".log")
    arrays = net.state_arrays()
    check_finite(arrays)  # an overflowing last update would save a broken net
    save_checkpoint(args.out, arrays)
    final = result.losses[-1] if result.losses else float("nan")
    print(f"trained {args.steps} steps, final loss {final:.6g}, checkpoint {args.out}")
    return EXIT_OK


def _load_refs(paths, role: str, r: int, size: int) -> list:
    if len(paths) != r:
        raise CorpusError(
            f"{role}: expected exactly {r} reference images "
            f"(checkpoint r={r}), got {len(paths)}"
        )
    images = []
    for path in paths:
        image = netpbm.read_image(path)
        if image.ndim != 2:
            raise CorpusError(f"{role}: {path} is not grayscale (P5)")
        if image.shape != (size, size):
            raise CorpusError(
                f"{role}: {path} is {image.shape[1]}x{image.shape[0]}, "
                f"checkpoint expects {size}x{size}"
            )
        images.append(image)
    return images


def _cmd_generate(args) -> int:
    net = FontNet.from_state(load_checkpoint(args.ckpt))
    r = net.config.ref_count
    size = net.config.image_size
    style = _load_refs(args.style_refs, "style references", r, size)
    content = _load_refs(args.content_refs, "content references", r, size)
    image = net.generate_from_refs(style, content)
    netpbm.write_pgm(args.out, image)
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    net = FontNet.from_state(load_checkpoint(args.ckpt))
    corpus = glyphs.load_corpus(args.corpus)
    if corpus.config.image_size != net.config.image_size:
        raise CorpusError(
            f"corpus images are {corpus.config.image_size}px but the checkpoint "
            f"expects {net.config.image_size}px"
        )
    suites = glyphs.build_eval_sets(corpus, net.config.ref_count, args.seed,
                                    per_set=args.per_set)
    results = evaluate(net, suites)
    print("set,l1,rmse,pdar")
    for cell in glyphs.CELLS:
        m = results[cell]
        print(f"{cell},{m.l1:.6f},{m.rmse:.6f},{m.pdar:.6f}")
    return EXIT_OK


def _load_nst_image(path) -> np.ndarray:
    image = netpbm.read_image(path).astype(np.float32)
    if image.ndim == 2:
        image = np.stack([image, image, image])
    return image


def _cmd_nst(args) -> int:
    net = NstNet.from_state(load_checkpoint(args.ckpt))
    style = Tensor(_load_nst_image(args.style)[None])
    content = Tensor(_load_nst_image(args.content)[None])
    if args.interp_style2:
        style2 = Tensor(_load_nst_image(args.interp_style2)[None])
        out = net.forward_interpolate(style, style2, content, args.alpha)
    else:
        # trade-off: interpolate from the content's own statistics to the style's
        out = net.forward_interpolate(content, style, content, args.alpha)
    netpbm.write_ppm(args.out, out.data[0])  # quantize clips to 0-255
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_nst_init(args) -> int:
    net = NstNet.initialize(NstConfig(), seed=args.seed)
    save_checkpoint(args.out, net.state_arrays())
    print(f"wrote fresh stylization checkpoint {args.out}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    commands = {"corpus": _cmd_corpus, "train": _cmd_train, "generate": _cmd_generate,
                "eval": _cmd_eval, "nst": _cmd_nst, "nst-init": _cmd_nst_init}
    try:
        args = parser.parse_args(argv)
        return commands[args.command](args)
    except SystemExit as exc:  # argparse reports usage errors itself
        return int(exc.code) if exc.code else EXIT_OK
    except TrainingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    # NetpbmError, CorpusError and CheckpointError are ValueErrors; a
    # MemoryError is an input whose arrays exceed the machine's memory
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
