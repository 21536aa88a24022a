"""SGD training loops for the queue method and the full-FC baselines.

One iteration of the queue method, in order: forward the query batch
through the extractor, generate class weights from the reference batch
with the EMA shadow (detached), build masked logits against the queue,
take the margin-softmax loss, backprop, SGD step on the extractor, EMA
update of the shadow, and finally enqueue the batch's weights. The
positive weight used at step t therefore enters the queue only at t+1.

Batches are a pure function of (seed, global step), so training is
deterministic and checkpoint resume is bit-exact.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import baseline as fc
from . import class_queue as cq
from .checkpoint import load_checkpoint, save_checkpoint
from .errors import CheckpointError, ConfigError, ShapeError, TrainingDiverged
from .evalbench import evaluate_protocol
from .model import MlpParams, check_layer_dims, extract_features, init_extractor
from .numerics import Tape, Tensor
from .synthdata import (
    EvalProtocol,
    IdentityUniverse,
    LongTailSpec,
    PairPlan,
    assign_longtail_counts,
    build_eval_protocol,
    build_universe,
    check_protocol_sizes,
    check_universe,
    make_pair_batch,
)

METHOD_DCQ = "dcq"
METHOD_FULL = "cosface-full"
METHOD_HEAD_ONLY = "cosface-head-only"
METHODS = (METHOD_DCQ, METHOD_FULL, METHOD_HEAD_ONLY)

METRICS_COLUMNS = ("epoch", "lr", "train_loss", "ver_acc", "id_rank1", "wall_seconds")


@dataclass(frozen=True)
class TrainConfig:
    """All knobs for one run. None fields resolve to method-specific defaults.

    Loss scale/margin default to 50/0.3 for the queue method and 64/0.35
    for the CosFace baselines; initial learning rates to 0.06 and 0.1.
    The desk-scale schedule keeps the 10x step-decay shape at reduced
    length.
    """

    method: str = METHOD_DCQ
    s: float | None = None
    m: float | None = None
    alpha: float = cq.DEFAULT_ALPHA
    K: int | None = None
    B: int = 32
    lr0: float | None = None
    decay_epochs: tuple[int, ...] = (15, 25, 28)
    decay_factor: float = 0.1
    epochs: int = 30
    sgd_momentum: float = 0.9
    weight_decay: float = 1e-4
    sampling: str = "instance"
    min_instances: int = 9
    seed: int = 1
    # synthetic data
    n_classes: int = 2000
    d_in: int = 32
    embed_dim: int = 32
    hidden_dims: tuple[int, ...] = (64, 64)
    sigma: float = 0.1
    zipf_exponent: float = 1.5
    min_count: int = 2
    max_count: int = 200
    # evaluation protocol
    eval_pairs: int = 400
    eval_probes: int = 200
    eval_distractors: int = 100
    checkpoint_every: int = 0

    def replace(self, **kwargs) -> "TrainConfig":
        unknown = sorted(kwargs.keys() - self.__dataclass_fields__.keys())
        if unknown:
            raise ConfigError(f"unknown config fields: {unknown}")
        return dataclasses.replace(self, **kwargs)

    def resolve(self) -> "TrainConfig":
        """Fill method-dependent defaults, then check every value."""
        if self.method not in METHODS:
            raise ConfigError(f"method must be one of {METHODS}, got {self.method!r}")
        self._check_types()
        is_dcq = self.method == METHOD_DCQ
        cfg = self.replace(
            s=self.s if self.s is not None else (cq.DEFAULT_SCALE if is_dcq else fc.DEFAULT_SCALE),
            m=self.m if self.m is not None else (cq.DEFAULT_MARGIN if is_dcq else fc.DEFAULT_MARGIN),
            lr0=self.lr0 if self.lr0 is not None else (0.06 if is_dcq else 0.1),
            K=self.K if self.K is not None else max(self.B, round(0.1 * self.n_classes)),
            decay_epochs=tuple(int(e) for e in self.decay_epochs),
            hidden_dims=tuple(int(h) for h in self.hidden_dims),
        )
        # manifests and checkpoints store the config as JSON, which takes no numpy integer
        cfg = cfg.replace(**{
            f.name: int(value) for f in dataclasses.fields(cfg)
            if isinstance(value := getattr(cfg, f.name), np.integer)
        })
        if cfg.sampling not in ("instance", "class"):
            raise ConfigError(f"sampling must be 'instance' or 'class', got {cfg.sampling!r}")
        # chained comparisons reject NaN and infinities
        if not 0.0 < cfg.s < math.inf:
            raise ConfigError(f"s must be finite and > 0, got {cfg.s}")
        if not 0.0 <= cfg.m < 1.0:
            raise ConfigError(f"margin must lie in [0, 1), got {cfg.m}")
        if not 0.0 <= cfg.alpha <= 1.0:
            raise ConfigError(f"alpha must lie in [0, 1], got {cfg.alpha}")
        if cfg.B < 1 or cfg.epochs < 1:
            raise ConfigError(f"B and epochs must be >= 1, got B={cfg.B}, epochs={cfg.epochs}")
        if cfg.method == METHOD_DCQ and cfg.K < cfg.B:
            raise ConfigError(f"queue size K={cfg.K} must be >= batch size B={cfg.B}")
        if not 0.0 < cfg.decay_factor <= 1.0:
            raise ConfigError(f"decay_factor must lie in (0, 1], got {cfg.decay_factor}")
        if not 0.0 < cfg.lr0 < math.inf:
            raise ConfigError(f"lr0 must be finite and > 0, got {cfg.lr0}")
        if not 0.0 <= cfg.sgd_momentum < 1.0:
            raise ConfigError(f"sgd_momentum must lie in [0, 1), got {cfg.sgd_momentum}")
        if not 0.0 <= cfg.weight_decay < math.inf:
            raise ConfigError(f"weight_decay must be finite and >= 0, got {cfg.weight_decay}")
        if min(cfg.decay_epochs, default=0) < 0:
            raise ConfigError(f"decay_epochs must be >= 0, got {list(cfg.decay_epochs)}")
        if cfg.checkpoint_every < 0:
            raise ConfigError(f"checkpoint_every must be >= 0, got {cfg.checkpoint_every}")
        if cfg.n_classes < 1:
            raise ConfigError(f"n_classes must be >= 1, got {cfg.n_classes}")
        # the rules of _build_run_state's builders, so a sweep rejects a value before any run trains
        check_layer_dims(cfg.layer_dims)
        if cfg.min_instances < 1:
            raise ConfigError(f"min_instances must be >= 1, got {cfg.min_instances}")
        spec = LongTailSpec(cfg.zipf_exponent, cfg.min_count, cfg.max_count)
        if cfg.eval_distractors < 0:
            raise ConfigError(f"eval_distractors must be >= 0, got {cfg.eval_distractors}")
        # the dataset format stores identities as u32; numpy's arange is empty near 2**63
        if cfg.n_classes + cfg.eval_distractors >= 2**32:
            raise ConfigError(
                f"n_classes + eval_distractors must be < 2**32, "
                f"got {cfg.n_classes} + {cfg.eval_distractors}"
            )
        check_universe(cfg.n_classes + cfg.eval_distractors, cfg.d_in, cfg.sigma, cfg.seed)
        check_protocol_sizes(cfg.n_classes, cfg.eval_pairs, cfg.eval_probes)
        if cfg.method == METHOD_HEAD_ONLY:  # the counts draw nothing
            fc.filter_head_classes(assign_longtail_counts(spec, cfg.n_classes), cfg.min_instances)
        return cfg

    def _check_types(self) -> None:
        # the field annotations are strings: "int", "float | None", "tuple[int, ...]"
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if value is None and f.type.endswith("| None"):
                continue
            if f.type.startswith("tuple"):
                ok = isinstance(value, (tuple, list)) and all(_is_int(v) for v in value)
            elif f.type.startswith("float"):
                ok = _is_int(value) or isinstance(value, float)
            else:  # str fields are checked against their allowed values
                ok = f.type == "str" or _is_int(value)
            if not ok:
                raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")

    @property
    def layer_dims(self) -> list[int]:
        return [self.d_in, *self.hidden_dims, self.embed_dim]

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "TrainConfig":
        return cls().replace(**data)


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def lr_at_step(config: TrainConfig, epoch: int) -> float:
    """Step-decay schedule: lr0 times factor per decay epoch reached."""
    if not 0 <= epoch < config.epochs:
        raise ConfigError(f"epoch {epoch} outside [0, {config.epochs})")
    cfg = config.resolve()
    n_decays = sum(1 for d in cfg.decay_epochs if d <= epoch)
    return cfg.lr0 * cfg.decay_factor**n_decays


def sgd_momentum_step(
    param: np.ndarray,
    grad: np.ndarray,
    velocity: np.ndarray,
    lr: float,
    momentum: float,
    weight_decay: float,
    n_decayed: int | None = None,
) -> None:
    """One in-place update of a parameter buffer and its velocity.

    g' = g + wd·θ on ``param[:n_decayed]`` (all of it when None) and g' = g
    on the rest; v ← momentum·v + g'; θ ← θ − lr·v. The rest is never
    multiplied by the decay: 0·θ + g would turn a −0.0 gradient into +0.0.
    """
    if not param.shape == grad.shape == velocity.shape:
        raise ShapeError(
            f"parameter {param.shape}, gradient {grad.shape} and velocity {velocity.shape} differ"
        )
    # one scratch buffer, rounding as in the formula above
    if weight_decay:
        n = len(param) if n_decayed is None else n_decayed
        step = np.multiply(param, weight_decay)
        step[:n] += grad[:n]
        step[n:] = grad[n:]
    else:
        step = grad.copy()
    velocity *= momentum
    velocity += step
    np.multiply(velocity, lr, out=step)
    param -= step


class QueueHead:
    """The dcq head: an EMA generator feeding a K-slot class queue, with no SGD state.

    Both heads' ``arrays`` and ``velocities`` name the live buffers a
    checkpoint holds; training and restore write them in place.
    """

    def __init__(self, cfg: TrainConfig, extractor: MlpParams, counts: np.ndarray):
        self.cfg, self.train_counts, self.w_pos = cfg, counts, None
        self.generator = cq.EmaGenerator(extractor, cfg.alpha)
        self.queue = cq.ClassQueue(cfg.embed_dim, cfg.K)
        shadow = self.generator.shadow.named_parameters()
        self.arrays = {f"generator.{name}": p.data for name, p in shadow}
        self.arrays.update({"queue.weights": self.queue.weights, "queue.labels": self.queue.labels})
        self.velocities = {}

    def loss(self, f: Tensor, batch, tape: Tape):
        w_pos = self.generator.generate(batch.x_w)
        self.w_pos = w_pos.data
        l_pos, l_neg = cq.dcq_logits_with_mask(f, w_pos, self.queue, batch.y, tape)
        return cq.dcq_cosface_loss(l_pos, l_neg, self.cfg.s, self.cfg.m, tape)

    def update(self, extractor: MlpParams, batch, tape: Tape, lr: float) -> None:
        self.generator.update(extractor)
        self.queue.update(Tensor(self.w_pos), batch.y)

    def restore(self, arrays: dict, global_step: int) -> None:
        """Set the cursor ``global_step`` steps leave; raise CheckpointError unless the labels fit.

        Every step enqueues B rows from slot 0 on, so the cursor is
        (global_step × B) mod K and the sentinel labels sit on exactly the
        slots from min(global_step × B, K) on.
        """
        K, C = self.cfg.K, self.cfg.n_classes
        enqueued = global_step * self.cfg.B
        filled = min(enqueued, K)
        labels = arrays["queue.labels"]
        if not np.isin(labels, np.arange(-1, C)).all():
            raise CheckpointError(f"checkpoint queue.labels must be integers in [-1, {C})")
        if not np.array_equal(labels == cq.SENTINEL_LABEL, np.arange(K) >= filled):
            raise CheckpointError(
                f"checkpoint queue.labels must hold the sentinel on exactly slots [{filled}, {K})"
            )
        self.queue.cursor = enqueued % K


class CosFaceHead(fc.FcHead):
    """A CosFace baseline's head: FC columns for the classes its method trains.

    cosface-full keeps every class, since each has min_count >= 1 instances;
    cosface-head-only keeps those with ``cfg.min_instances`` or more.
    ``retained_ids`` are the kept classes, ``label_map`` maps a class to its
    column (−1 if dropped) and ``train_counts`` zeroes the dropped counts.
    """

    def __init__(self, cfg: TrainConfig, counts: np.ndarray):
        self.cfg, self.w_pos = cfg, None
        min_instances = cfg.min_instances if cfg.method == METHOD_HEAD_ONLY else 1
        self.retained_ids, self.label_map = fc.filter_head_classes(counts, min_instances)
        self.train_counts = np.where(self.label_map >= 0, counts, 0)
        super().__init__(cfg.embed_dim, self.retained_ids.size, cfg.seed)
        self.velocity = np.zeros_like(self.W.data)
        self.arrays, self.velocities = {"head.W": self.W.data}, {"head.W": self.velocity}

    def loss(self, f: Tensor, batch, tape: Tape):
        return fc.fc_cosface_loss(f, self, self.label_map[batch.y], self.cfg.s, self.cfg.m, tape)

    def update(self, extractor: MlpParams, batch, tape: Tape, lr: float) -> None:
        momentum, decay = self.cfg.sgd_momentum, self.cfg.weight_decay
        sgd_momentum_step(self.W.data, tape.grad(self.W), self.velocity, lr, momentum, decay)

    def restore(self, arrays: dict, global_step: int) -> None:
        pass


@dataclass
class TrainResult:
    config: TrainConfig
    universe: IdentityUniverse
    counts: np.ndarray
    protocol: EvalProtocol
    extractor: MlpParams
    head: QueueHead | CosFaceHead
    velocity: np.ndarray  # laid out as extractor.flat
    metrics: list[dict] = field(default_factory=list)
    final_eval: dict = field(default_factory=dict)
    final_step: int = 0

    @property
    def optimizer_state(self) -> dict[str, np.ndarray]:
        """Each trained parameter's SGD velocity by name: the extractor's views, then the head's."""
        return {**dict(self.extractor.views(self.velocity)), **self.head.velocities}

    @property
    def steps_per_epoch(self) -> int:
        """Batches per epoch: the head's training instances over B, at least one."""
        return max(1, int(self.head.train_counts.sum()) // self.config.B)


def _build_run_state(cfg: TrainConfig) -> TrainResult:
    """Data, eval protocol, freshly initialised model and zero optimizer state."""
    universe = build_universe(cfg.n_classes + cfg.eval_distractors, cfg.d_in, cfg.sigma, cfg.seed)
    spec = LongTailSpec(cfg.zipf_exponent, cfg.min_count, cfg.max_count)
    counts = assign_longtail_counts(spec, cfg.n_classes)
    protocol = build_eval_protocol(universe, counts, cfg.eval_pairs, cfg.eval_probes)
    extractor = init_extractor(cfg.layer_dims, cfg.seed)
    is_dcq = cfg.method == METHOD_DCQ
    head = QueueHead(cfg, extractor, counts) if is_dcq else CosFaceHead(cfg, counts)
    return TrainResult(
        config=cfg, universe=universe, counts=counts, protocol=protocol,
        extractor=extractor, head=head, velocity=np.zeros_like(extractor.flat),
    )


def _checkpoint_arrays(state: TrainResult) -> dict[str, np.ndarray]:
    """The live buffers a checkpoint holds, by name."""
    arrays = {f"extractor.{name}": p.data for name, p in state.extractor.named_parameters()}
    arrays.update(state.head.arrays)
    for name, v in state.optimizer_state.items():
        arrays[f"velocity.{name}"] = v
    return arrays


def _restore_from_checkpoint(state: TrainResult, arrays: dict, global_step: int) -> None:
    """Copy a checkpoint's arrays into a run state built from the same config.

    The checkpoint must hold exactly the arrays that state would save, each
    with the same shape; anything else raises CheckpointError. The head
    checks its own state first. ``final_step`` becomes ``global_step``.
    """
    expected = _checkpoint_arrays(state)
    missing = sorted(expected.keys() - arrays.keys())
    extra = sorted(arrays.keys() - expected.keys())
    if missing or extra:
        raise CheckpointError(
            f"checkpoint arrays do not fit a {state.config.method} run: "
            f"missing {missing}, unexpected {extra}"
        )
    for name, ref in expected.items():
        if arrays[name].shape != ref.shape:
            raise CheckpointError(
                f"checkpoint array {name} has shape {arrays[name].shape}, expected {ref.shape}"
            )
    state.head.restore(arrays, global_step)
    for name, target in expected.items():
        target[...] = arrays[name]
    state.final_step = global_step


def run_training(
    config: TrainConfig,
    hooks: Callable[[dict], None] | None = None,
    resume_from=None,
    checkpoint_dir=None,
) -> TrainResult:
    """Train one model per the config; returns parameters and metric series.

    ``hooks`` is called after each step's updates with a record of ``step``,
    ``epoch``, ``loss``, ``labels``, ``probs`` (the head's B × C softmax
    matrix; row i's target column is 0 for dcq and
    ``state.head.label_map[labels[i]]`` for the CosFace methods), ``w_pos``
    (the B × D positive weights for dcq, None otherwise) and ``state``, the live
    ``TrainResult``, which hooks only read. The record's arrays belong to the
    step and are not written after the hook returns, so it copies nothing.
    dcq's queue and generator are ``state.head.queue`` and ``state.head.generator``.
    ``resume_from`` continues from a checkpoint written with the same
    config; only epochs after the checkpoint are run and reported.
    ``state.final_step`` advances at each epoch end. When ``checkpoint_dir``
    is given and ``checkpoint_every`` is set, ``epoch_NNN.ckpt`` is written
    there after every ``checkpoint_every`` epochs and after the last epoch,
    NNN being the epochs done.
    """
    cfg = config.resolve()
    if resume_from is None:
        result = _build_run_state(cfg)
    else:
        result = load_result_checkpoint(resume_from)
        differ = [f.name for f in dataclasses.fields(cfg)
                  if getattr(result.config, f.name) != getattr(cfg, f.name)]
        if differ:
            raise ConfigError(f"checkpoint config differs from the requested config in {differ}")
    extractor, head = result.extractor, result.head

    global_step = result.final_step
    start_epoch = global_step // result.steps_per_epoch
    plan = PairPlan(result.universe, head.train_counts, cfg.B, cfg.sampling)
    every = cfg.checkpoint_every if checkpoint_dir is not None else 0

    scores = None
    for epoch in range(start_epoch, cfg.epochs):
        epoch_start = time.perf_counter()
        lr = lr_at_step(cfg, epoch)
        epoch_losses = []
        for _ in range(result.steps_per_epoch):
            batch = make_pair_batch(plan, global_step)
            tape = Tape()
            feats = extract_features(extractor, batch.x_t, tape)
            loss, probs = head.loss(feats, batch, tape)

            loss_value = float(loss.data)
            if not np.isfinite(loss_value):
                raise TrainingDiverged(
                    f"non-finite loss {loss_value!r} at step {global_step} "
                    f"(epoch {epoch}, labels {batch.y.tolist()}, "
                    f"feature range [{feats.data.min():.3e}, {feats.data.max():.3e}])"
                )

            # backward before the head's update: the dcq loss's closures read the live queue
            tape.backward(loss)
            sgd_momentum_step(
                extractor.flat, extractor.gather(tape.grad), result.velocity,
                lr, cfg.sgd_momentum, cfg.weight_decay, extractor.n_decayed,
            )
            head.update(extractor, batch, tape, lr)

            if hooks is not None:
                hooks(
                    {
                        "step": global_step, "epoch": epoch, "loss": loss_value,
                        "labels": batch.y, "probs": probs,
                        "w_pos": head.w_pos, "state": result,
                    }
                )
            epoch_losses.append(loss_value)
            global_step += 1

        scores = evaluate_protocol(extractor, result.protocol)
        result.metrics.append(
            {
                "epoch": epoch,
                "lr": lr,
                "train_loss": float(np.mean(epoch_losses)),
                "ver_acc": scores["ver_acc"],
                "id_rank1": scores["id_rank1"],
                "wall_seconds": time.perf_counter() - epoch_start,
            }
        )
        result.final_step = global_step
        done = epoch + 1
        if every and (done % every == 0 or done == cfg.epochs):
            save_result_checkpoint(f"{checkpoint_dir}/epoch_{done:03d}.ckpt", result)

    # the last epoch already scored the final model
    result.final_eval = (
        dict(scores) if scores is not None else evaluate_protocol(extractor, result.protocol)
    )
    return result


def run_experiment_grid(base_config: TrainConfig, axis: str, values) -> list[dict]:
    """Train one model per value of the config field ``axis``; every other field is shared.

    Returns one result row per value, in the order given, with the run's
    whole ``final_eval`` and its per-epoch metric curves.
    """
    # every value's config is checked before any training starts
    configs = [base_config.replace(**{axis: value}).resolve() for value in values]
    rows = []
    for value, cfg in zip(values, configs):
        result = run_training(cfg)
        epochs = [dict(r) for r in result.metrics]
        rows.append({"axis": axis, "value": value, **result.final_eval, "epochs": epochs})
    return rows


def save_result_checkpoint(path, result: TrainResult) -> None:
    """Write a run's checkpoint at its ``final_step``: its config, that step and its arrays."""
    meta = {"config": result.config.to_dict(), "state": {"global_step": result.final_step}}
    save_checkpoint(path, meta, _checkpoint_arrays(result))


def load_result_checkpoint(path) -> TrainResult:
    """The model state (not metrics) a checkpoint holds, built from its own config.

    The metadata must hold a config object and a state object whose
    ``global_step`` is a non-negative int at an epoch end of that run: a
    multiple of the steps per epoch, at most ``epochs`` of them. Other state
    keys are not read. Anything else raises CheckpointError.
    """
    meta, arrays = load_checkpoint(path)
    meta = meta if isinstance(meta, dict) else {}
    config, progress = meta.get("config"), meta.get("state")
    if not isinstance(config, dict) or not isinstance(progress, dict):
        raise CheckpointError("checkpoint metadata lacks its config or state object")
    state = _build_run_state(TrainConfig.from_dict(config).resolve())
    step, per_epoch, epochs = progress.get("global_step"), state.steps_per_epoch, state.config.epochs
    if not (_is_int(step) and 0 <= step <= epochs * per_epoch and step % per_epoch == 0):
        raise CheckpointError(
            f"checkpoint state.global_step must be an epoch end of {epochs} epochs "
            f"of {per_epoch} steps, got {step!r}"
        )
    _restore_from_checkpoint(state, arrays, step)
    return state
