import dataclasses
import hashlib
import json
import math
import random
import sys

import numpy as np
import pytest

from polyseq import (
    ReferenceModel,
    SpatialDescriptors,
    build_context,
    cross_modal_fusion,
    forward_polymer,
    fragcam,
    gin_layer,
    layer_norm,
    local_attention_layer,
    mask_atoms,
    neighbour_table,
    parse,
    project_spatial,
    star_link,
)
from polyseq import graphs, nets, verify
from polyseq.context import DIST_CLAMP, EDGE_CODES, AttentionContext
from polyseq.corpus import corpus
from polyseq.graphs import (apply_backbone_embedding, auto_repeat_for_lga,
                            featurize, relabel)
from polyseq.nets import (
    N_PATH_CODES,
    _normals,
    classify_atoms,
    normalize_fragmentation,
    softmax,
)


@pytest.fixture(scope="module")
def model():
    return ReferenceModel.generate(seed=7, d=16, L=2, d_thres=3)


def star_ctx(psmiles, d_thres):
    g = star_link(parse(psmiles)).as_graph()
    return g, build_context(g, d_thres)


def _reference_local_attention_layer(ctx, x, w):
    """The dense layer: scores and biases on all [key node, query] pairs,
    where key node ``key * m + image - lo`` is a key atom in one of the
    context's m images (m = 1 on a plain graph), the mask applied inside a
    column softmax, and y = v @ a_hat."""
    n, d = ctx.n, x.shape[0]
    lo = int(ctx.image.min())
    m = int(ctx.image.max()) - lo + 1
    dist = np.zeros((n * m, n), dtype=np.int64)
    means = np.zeros((n * m, n, N_PATH_CODES))
    mask = np.zeros((n * m, n), dtype=bool)
    real = ~ctx.pad
    node = ctx.key[real] * m + ctx.image[real] - lo
    query = np.nonzero(real)[0]
    dist[node, query] = ctx.dist[real]
    means[node, query] = ctx.path[real]
    mask[node, query] = True
    # every image of an atom carries that atom's features
    q, k, v = (w[name] @ x for name in ("wq", "wk", "wv"))
    k, v = np.repeat(k, m, axis=1), np.repeat(v, m, axis=1)
    bias = w["dist"][np.minimum(dist, DIST_CLAMP + 1)] + means @ w["path"]
    scores = (k.T @ q) / math.sqrt(d) + bias
    a_hat = softmax(np.where(mask, scores, -np.inf), axis=0)
    x1 = layer_norm(v @ a_hat + x, w["ln1_gain"], w["ln1_bias"])
    ffn = w["ffn_w2"] @ np.maximum(
        w["ffn_w1"] @ x1 + w["ffn_b1"][:, None], 0.0) + w["ffn_b2"][:, None]
    return layer_norm(ffn + x1, w["ln2_gain"], w["ln2_bias"])


def _reference_link_forward(model, g):
    """The k-fold link path: repeat the monomer until its boundary distance
    exceeds 2*d_thres - 1, close it by the link bond, and run the layers on
    that cyclic graph, pooling with a float64 mean."""
    star = star_link(auto_repeat_for_lga(g, model.d_thres)[0])
    graph = star.as_graph()
    x = apply_backbone_embedding(model["input_proj"] @ featurize(graph),
                                 star.backbone, model["backbone"])
    ctx = build_context(graph, model.d_thres)
    for w in model.layers:
        x = local_attention_layer(ctx, x, w)
    h = x.mean(axis=1)
    return nets.ForwardResult(x, h, float(model["head"] @ h))


def _reference_gin_layer(g, x, w1, b1, w2, b2):
    """The bond loop: each bond adds either end's column to the other's."""
    s = x.copy()
    for b in g.bonds:
        s[:, b.u] += x[:, b.v]
        s[:, b.v] += x[:, b.u]
    return w2 @ np.maximum(w1 @ s + b1[:, None], 0.0) + b2[:, None]


def _oracle_chains(lines, d_thres=3):
    """The unrolls lga_deviation builds at L=3, one per line."""
    for s in lines:
        yield verify._unroll(star_link(parse(s)), 3 * (d_thres - 1))[0]


def normals_reference(seed, name, count):
    """counter-mix-v1 one Python int at a time: the reference _normals
    must match bit for bit."""
    mask = (1 << 64) - 1

    def mix64(x):
        z = x & mask
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        return z ^ (z >> 31)

    key = seed ^ int.from_bytes(
        hashlib.blake2b(name.encode(), digest_size=8).digest(), "big")
    out = np.empty(count)
    for p in range((count + 1) // 2):
        a = mix64(key + (2 * p + 1) * 0x9E3779B97F4A7C15)
        b = mix64(key + (2 * p + 2) * 0x9E3779B97F4A7C15)
        u1 = (a >> 11) * 2.0 ** -53 or 2.0 ** -53
        u2 = (b >> 11) * 2.0 ** -53
        r = math.sqrt(-2.0 * math.log(u1))
        out[2 * p] = r * math.cos(2.0 * math.pi * u2)
        if 2 * p + 1 < count:
            out[2 * p + 1] = r * math.sin(2.0 * math.pi * u2)
    return out


class TestWeights:
    @pytest.mark.parametrize("seed", [0, 7, 101, 2 ** 64 + 5, 2 ** 70 - 1,
                                      -1, -3])
    @pytest.mark.parametrize("count", [0, 1, 2, 7, 4096])
    def test_normals_match_reference(self, seed, count):
        got = _normals(seed, "attn0.wq", count)
        assert got.shape == (count,)
        assert got.tobytes() == normals_reference(seed, "attn0.wq",
                                                  count).tobytes()

    @pytest.mark.parametrize("args,kwargs,digest", [
        ((0,), dict(d=64, L=3, d_thres=3,
                    spatial_groups={"shape": 3, "charge": 2}),
         "03ab9d75ae099038"),
        ((101,), dict(d=64, L=3, d_thres=3), "bfd35541eac47979"),
        ((7,), dict(d=16, L=2, d_thres=3), "3a5298639e20fc37"),
        ((2 ** 64 + 5,), dict(d=16, L=1, d_thres=3), "2e2c7ccecbcb7aee"),
        ((-3,), dict(d=16, L=1, d_thres=3), "cf765a1379d4910e"),
    ])
    def test_golden_digest(self, args, kwargs, digest):
        assert ReferenceModel.generate(*args, **kwargs).digest() == digest
        # each weight has its own stream: the order of first reads does
        # not move a bit
        model = ReferenceModel.generate(*args, **kwargs)
        names = list(model.weights)
        random.Random(digest).shuffle(names)
        for name in names:
            model[name]
        assert model.digest() == digest

    def test_draws_on_first_read(self, monkeypatch):
        drawn = []

        def normals(seed, name, count):
            drawn.append(name)
            return _normals(seed, name, count)

        monkeypatch.setattr(nets, "_normals", normals)
        model = ReferenceModel.generate(0, spatial_groups={"g": 2})
        # the name table answers these without drawing
        assert model.L == 3 and len(model.weights) == 61
        assert "head" in model.weights and "attn3.wq" not in model.weights
        assert drawn == []
        sd = SpatialDescriptors([("g", np.array([0.5, -1.0]))])
        yhat = forward_polymer(model, parse("*CC(C)O*"), sd).yhat
        # each weight a pass reads is drawn once; the GIN layers and the
        # masked-atom head are not read
        assert sorted(drawn) == sorted(
            n for n in model.weights
            if not (n.startswith("gin") or n == "mask_classifier"))
        assert forward_polymer(model, parse("*CC(C)O*"), sd).yhat == yhat
        assert len(drawn) == 48

    def test_replace_shares_the_draws(self):
        model = ReferenceModel.generate(seed=7, d=16, L=2, d_thres=3)
        other = dataclasses.replace(model, d_thres=2)
        for name in model.weights:
            assert other[name] is model[name]

    def test_weights_are_read_only(self, tmp_path):
        # a write would leave the digest naming weights no pass reads
        m = ReferenceModel.generate(0, d=8, L=2)
        path = tmp_path / "model.json"
        m.save(str(path))
        loaded = ReferenceModel.load(str(path))
        for model in (m, loaded):
            digest = model.digest()
            for l in range(model.L):
                with pytest.raises(TypeError):
                    model.layers[l]["dist"] = np.zeros(nets.N_DIST_BUCKETS)
                with pytest.raises(ValueError):
                    model.layers[l]["wq"][0, 0] += 1.0
            for name in model.weights:
                with pytest.raises(ValueError):
                    model[name][...] = 0.0
            assert model.digest() == digest
            # dict() still copies a layer's map, for a caller's own edits
            w = dict(model.layers[0])
            w["dist"] = np.zeros(nets.N_DIST_BUCKETS)
            assert model.layers[0]["dist"] is model["attn0.dist"]

    def test_digest_tracks_weights(self, model, tmp_path):
        path = str(tmp_path / "model.json")
        model.save(path)
        assert ReferenceModel.load(path).digest() == model.digest()
        other = ReferenceModel.generate(seed=8, d=16, L=2, d_thres=3)
        assert other.digest() != model.digest()

    def test_generation_deterministic(self):
        a = ReferenceModel.generate(seed=3, d=8, L=1)
        b = ReferenceModel.generate(seed=3, d=8, L=1)
        assert a.weights.keys() == b.weights.keys()
        for k in a.weights:
            assert np.array_equal(a.weights[k], b.weights[k])

    def test_seed_changes_weights(self):
        a = ReferenceModel.generate(seed=3, d=8, L=1)
        b = ReferenceModel.generate(seed=4, d=8, L=1)
        assert not np.array_equal(a["head"], b["head"])

    def test_name_keying_is_independent(self):
        # weights are keyed by name, not by generation order
        a = ReferenceModel.generate(seed=3, d=8, L=1)
        b = ReferenceModel.generate(seed=3, d=8, L=2)
        assert np.array_equal(a["attn0.wq"], b["attn0.wq"])
        assert np.array_equal(a["head"], b["head"])

    def test_save_load_round_trip(self, tmp_path):
        # saving a fresh model draws every weight
        model = ReferenceModel.generate(seed=7, d=16, L=2, d_thres=3)
        path = str(tmp_path / "model.json")
        model.save(path)
        with open(path) as fh:  # the shape is read off the weights
            assert sorted(json.load(fh)["meta"]) == ["d_thres", "seed"]
        loaded = ReferenceModel.load(path)
        assert loaded.d == model.d and loaded.L == model.L
        assert loaded.seed == model.seed and loaded.d_thres == model.d_thres
        for k in model.weights:
            assert np.array_equal(loaded[k], model[k])
        g = parse("*CC(C)O*")
        assert (forward_polymer(loaded, g).yhat
                == forward_polymer(model, g).yhat)
        again = tmp_path / "again.json"
        loaded.save(str(again))
        assert again.read_bytes() == (tmp_path / "model.json").read_bytes()

    @pytest.mark.parametrize("d, groups", [(1, {"one": 1, "three": 3}),
                                           (8, {"one": 1})])
    def test_save_load_keeps_shapes(self, d, groups, tmp_path):
        # a one-row (d = 1) or one-column (1-wide group) matrix loads with
        # its own shape, so the loaded model runs
        model = ReferenceModel.generate(seed=5, d=d, L=1,
                                        spatial_groups=groups)
        path = str(tmp_path / "model.json")
        model.save(path)
        loaded = ReferenceModel.load(path)
        assert ({k: w.shape for k, w in loaded.weights.items()}
                == {k: w.shape for k, w in model.weights.items()})
        assert loaded.digest() == model.digest()
        sd = SpatialDescriptors([(name, np.linspace(0.5, 1.5, dim))
                                 for name, dim in groups.items()])
        g = parse("*CC(C)OC(=O)*")
        assert (forward_polymer(loaded, g, sd).yhat
                == forward_polymer(model, g, sd).yhat)

    def test_missing_weight_raises(self, model):
        with pytest.raises(KeyError):
            model["attn9.wq"]

    def test_loaded_file_missing_a_layer_weight_names_it(self, tmp_path):
        model = ReferenceModel.generate(seed=7, d=8, L=1)
        path = tmp_path / "model.json"
        model.save(str(path))
        doc = json.loads(path.read_text())
        del doc["weights"]["attn0.ln1_bias"]
        path.write_text(json.dumps(doc))
        loaded = ReferenceModel.load(str(path))
        with pytest.raises(KeyError, match="no weight 'attn0.ln1_bias'"):
            forward_polymer(loaded, parse("*CC*"))

    @pytest.mark.parametrize("d, L, d_thres", [
        (0, 1, 3), (-4, 1, 3), (8, 0, 3), (8, -1, 3), (8, 1, 0)],
        ids=["0-1", "-4-1", "8-0", "8--1", "d_thres-0"])
    def test_non_positive_size_raises(self, d, L, d_thres):
        # a model with d_thres < 1 would fail only at its first forward pass
        with pytest.raises(ValueError):
            ReferenceModel.generate(seed=1, d=d, L=L, d_thres=d_thres)

    def test_bad_d_thres_raises_at_load(self, model, tmp_path):
        # 0 and 2.0 would fail only at the first forward pass, and true
        # would run silently as d_thres 1
        path = tmp_path / "model.json"
        model.save(str(path))
        doc = json.loads(path.read_text())
        for bad in (0, True, 2.0):
            doc["meta"]["d_thres"] = bad
            path.write_text(json.dumps(doc))
            with pytest.raises(ValueError):
                ReferenceModel.load(str(path))
            with pytest.raises(ValueError):
                dataclasses.replace(model, d_thres=bad)

    @pytest.mark.parametrize("d, L, groups", [(1, 1, {}), (8, 2, {"g": 3}),
                                              (64, 3, {})])
    def test_shape_read_off_weights(self, d, L, groups):
        model = ReferenceModel.generate(seed=2, d=d, L=L,
                                        spatial_groups=groups)
        assert (model.d, model.L) == (d, L)

    def test_load_reads_shape_off_weights(self, tmp_path):
        # files written before the shape was read off the weights carry it
        # in their meta too; it is ignored, so an edited L changes nothing
        model = ReferenceModel.generate(seed=9, d=8, L=3,
                                        spatial_groups={"g": 2})
        path = tmp_path / "model.json"
        model.save(str(path))
        doc = json.loads(path.read_text())
        doc["meta"].update(d=8, L=2, d_atom=graphs.feature_dim(),
                           spatial_groups={"g": 2})
        path.write_text(json.dumps(doc))
        loaded = ReferenceModel.load(str(path))
        assert loaded.digest() == model.digest()
        assert (loaded.d, loaded.L, loaded.d_thres) == (8, 3, 3)
        g = parse("*CC(C)O*")
        assert (forward_polymer(loaded, g).yhat
                == forward_polymer(model, g).yhat)

    def test_spatial_groups(self):
        m = ReferenceModel.generate(seed=1, d=8, L=1,
                                    spatial_groups={"geom": 3})
        assert m["spatial.geom"].shape == (8, 3)


class TestPrimitives:
    def test_layer_norm_stats(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(12, 5)) * 4 + 2
        out = layer_norm(x, np.ones(12), np.zeros(12))
        assert np.allclose(out.mean(axis=0), 0.0, atol=1e-10)
        assert np.allclose(out.std(axis=0), 1.0, atol=1e-6)

    def test_layer_norm_gain_bias(self):
        x = np.arange(8.0).reshape(4, 2)
        g = np.array([2.0, 2.0, 2.0, 2.0])
        b = np.array([1.0, 1.0, 1.0, 1.0])
        plain = layer_norm(x, np.ones(4), np.zeros(4))
        assert np.allclose(layer_norm(x, g, b), 2 * plain + 1)

    def test_softmax_columns(self):
        s = np.array([[0.0, 10.0], [1.0, 10.0]])
        a = softmax(s, axis=0)
        assert np.allclose(a.sum(axis=0), 1.0)
        assert np.allclose(a[:, 1], 0.5)

    @pytest.mark.parametrize("axis", [0, 1])
    def test_softmax_is_the_plain_formula_bitwise(self, axis):
        rng = np.random.default_rng(axis)
        s = rng.normal(size=(7, 5)) * 30
        s[2, 3] = -np.inf  # a masked score
        m = s.max(axis=axis, keepdims=True)
        want = np.exp(s - m) / np.exp(s - m).sum(axis=axis, keepdims=True)
        assert softmax(s, axis).tobytes() == want.tobytes()
        assert softmax(s, axis)[2, 3] == 0.0

    def test_layer_norm_is_two_pass_bitwise(self):
        rng = np.random.default_rng(3)
        for rows, cols, scale in [(64, 288, 1.0), (16, 7, 1e3), (5, 1, 1e-3),
                                  (1, 4, 1.0), (64, 30, 1e8)]:
            x = rng.normal(size=(rows, cols)) * scale + scale
            gain, bias = rng.normal(size=rows), rng.normal(size=rows)
            mu = x.mean(axis=0, keepdims=True)
            var = x.var(axis=0, keepdims=True)
            want = (x - mu) / np.sqrt(var + nets.LN_EPS)
            assert np.array_equal(layer_norm(x, np.ones(rows),
                                             np.zeros(rows)), want)
            assert np.array_equal(layer_norm(x, gain, bias),
                                  want * gain[:, None] + bias[:, None])

    def test_gin_symmetry(self, model):
        g = star_link(parse("*CONO*")).as_graph()
        x = np.ones((model.d, g.n))
        nbr, _ = neighbour_table(g)
        out = gin_layer(nbr, x, model["gin0.w1"], model["gin0.b1"],
                        model["gin0.w2"], model["gin0.b2"])
        # every atom of the uniform 4-cycle sees an identical neighborhood
        assert np.allclose(out, out[:, :1])

    def test_gin_shape_checks(self, model):
        g = star_link(parse("*CONO*")).as_graph()
        nbr, _ = neighbour_table(g)
        with pytest.raises(ValueError):
            gin_layer(nbr, np.ones((model.d + 1, g.n)), model["gin0.w1"],
                      model["gin0.b1"], model["gin0.w2"], model["gin0.b2"])
        with pytest.raises(ValueError):
            gin_layer(nbr, np.ones((model.d, g.n + 1)), model["gin0.w1"],
                      model["gin0.b1"], model["gin0.w2"], model["gin0.b2"])


class TestAttention:
    def test_columns_are_distributions(self, model):
        g, ctx = star_ctx("*CC(C)OC(=O)*", 2)
        w = model.layers[0]
        # uniform input: a column that sums to 1 averages v to its column
        x0 = np.random.default_rng(1).normal(size=(model.d, 1))
        out = local_attention_layer(ctx, np.tile(x0, (1, g.n)), w)
        x1 = layer_norm(w["wv"] @ x0 + x0, w["ln1_gain"], w["ln1_bias"])
        hidden = np.maximum(w["ffn_w1"] @ x1 + w["ffn_b1"][:, None], 0.0)
        ffn = w["ffn_w2"] @ hidden + w["ffn_b2"][:, None]
        want = layer_norm(ffn + x1, w["ln2_gain"], w["ln2_bias"])
        assert np.allclose(out, np.tile(want, (1, g.n)), atol=1e-12)
        # the distribution is over the masked-in entries only
        rng = np.random.default_rng(2)
        x = rng.normal(size=(model.d, g.n))
        base = local_attention_layer(ctx, x, w)
        for i in range(g.n):
            moved = x.copy()
            outside = np.ones(g.n, dtype=bool)
            outside[ctx.key[i, ~ctx.pad[i]]] = False
            moved[:, outside] = rng.normal(size=(model.d, outside.sum()))
            got = local_attention_layer(ctx, moved, w)
            assert np.allclose(got[:, i], base[:, i], atol=1e-12)
            assert not np.allclose(got[:, outside], base[:, outside])


class TestReferenceAttention:
    """The pairwise layer matches the dense layer it replaced."""

    @pytest.mark.parametrize("s", ["*CC(C)OC(=O)*", "*c1ccc(*)cc1",
                                   "*C12C3C4C1C5C2C3C45*", "*C*"])
    @pytest.mark.parametrize("d_thres", [1, 2, 3, 4, 40])
    def test_random_inputs(self, model, s, d_thres):
        self._check_random_inputs(model, *star_ctx(s, d_thres), d_thres)

    @pytest.mark.parametrize("s", ["*CC(C)OC(=O)*", "*c1ccc(*)cc1",
                                   "*C12C3C4C1C5C2C3C45*", "*C*"])
    @pytest.mark.parametrize("d_thres", [1, 2, 3, 4, 40])
    def test_random_inputs_periodic(self, model, s, d_thres):
        star = star_link(parse(s))
        self._check_random_inputs(model, star.as_graph(),
                                  build_context(star, d_thres), d_thres)

    @staticmethod
    def _check_random_inputs(model, g, ctx, d_thres):
        rng = np.random.default_rng(d_thres)
        for l in range(model.L):
            w = dict(model.layers[l])  # a copy: the model's maps are read-only
            w["dist"] = rng.normal(size=w["dist"].shape) * 3
            w["path"] = rng.normal(size=w["path"].shape) * 3
            x = rng.normal(size=(model.d, g.n)) * 2
            got = local_attention_layer(ctx, x, w)
            want = _reference_local_attention_layer(ctx, x, w)
            assert np.abs(got - want).max() <= 1e-12

    @pytest.mark.parametrize("strategy", ["link", "remove", "keep",
                                          "substitute"])
    def test_forward_matches_dense(self, strategy, monkeypatch):
        lines = corpus(300, seed=15)
        for d_thres in (2, 3, 4):
            m = ReferenceModel.generate(seed=0, d_thres=d_thres)
            got = [forward_polymer(m, parse(s), strategy=strategy).yhat
                   for s in lines]
            with monkeypatch.context() as mp:
                mp.setattr(nets, "local_attention_layer",
                           _reference_local_attention_layer)
                want = [forward_polymer(m, parse(s), strategy=strategy).yhat
                        for s in lines]
            assert np.abs(np.subtract(got, want)).max() <= 1e-12


class TestPeriodicForward:
    """The link forward pass on one repeat unit agrees with the k-fold
    path it replaced."""

    LINES = corpus(300, seed=15)

    @pytest.mark.parametrize("d_thres", [2, 3, 4])
    def test_matches_k_fold_path(self, d_thres):
        m = ReferenceModel.generate(seed=0, d_thres=d_thres)
        for s in self.LINES:
            g = parse(s)
            got, want = forward_polymer(m, g), _reference_link_forward(m, g)
            assert got.xts.shape[1] == star_link(g).monomer.n
            assert abs(got.yhat - want.yhat) <= 1e-12
            assert np.abs(got.xts[:, :g.n] - want.xts[:, :g.n]).max() <= 1e-12
            if auto_repeat_for_lga(g, d_thres)[1] == 1:
                # the same graph and the same context: the same bits
                assert np.array_equal(got.xts, want.xts)

    def test_never_repeats_the_unit(self, monkeypatch):
        calls = {"auto_repeat_for_lga": 0, "repeat_monomer": 0}
        mods = [mod for name, mod in sys.modules.items() if mod is not None
                and (name == "polyseq" or name.startswith("polyseq."))]
        for name in calls:
            orig = getattr(graphs, name)

            def counted(*args, _name=name, _orig=orig, **kwargs):
                calls[_name] += 1
                return _orig(*args, **kwargs)

            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        monkeypatch.setattr(mod, key, counted)
        m = ReferenceModel.generate(seed=0, d=16, L=1, d_thres=4)
        for s in self.LINES[:50] + ["*CNO*"]:
            g = parse(s)
            forward_polymer(m, g)
            assert calls["auto_repeat_for_lga"] == 0
            # star_link repeats only a unit whose ends coincide or bond
            if g.head != g.tail and not g.has_bond(g.head, g.tail):
                assert calls["repeat_monomer"] == 0, s
            calls["repeat_monomer"] = 0

    def test_second_call_keeps_the_bits(self, model):
        # the second call reads the unit's memoised features and backbone
        for s in self.LINES[:60] + ["*C*", "*CC*", "*C(*)O"]:
            g = parse(s)
            for use_backbone in (True, False):
                first = forward_polymer(model, g, use_backbone=use_backbone)
                again = forward_polymer(model, g, use_backbone=use_backbone)
                fresh = forward_polymer(model, parse(s),
                                        use_backbone=use_backbone)
                assert first.yhat == again.yhat == fresh.yhat, s
                assert np.array_equal(first.xts, again.xts), s
                assert np.array_equal(first.xts, fresh.xts), s


class TestNeighbourTables:
    """The padded tables match the loops they replaced, and pads are
    invisible."""

    LINES = corpus(6, seed=17) + ["*C1CC2CCC1C2*", "*C12C3C4C1C5C2C3C45*",
                                  "*C(C1(CCCC1)*)NN"]

    def test_gin_matches_bond_loop(self, model):
        rng = np.random.default_rng(5)
        graphs = [star_link(parse(s)).as_graph() for s in self.LINES]
        for g in graphs + list(_oracle_chains(self.LINES)):
            nbr, _ = neighbour_table(g)
            x = rng.normal(size=(model.d, g.n)) * 2
            for l in range(model.L):
                args = (model[f"gin{l}.w1"], model[f"gin{l}.b1"],
                        model[f"gin{l}.w2"], model[f"gin{l}.b2"])
                got = gin_layer(nbr, x, *args)
                want = _reference_gin_layer(g, x, *args)
                assert np.abs(got - want).max() <= 1e-12
                x = got

    @pytest.mark.parametrize("d_thres", [2, 3, 4])
    def test_attention_matches_dense_on_chains(self, model, d_thres):
        rng = np.random.default_rng(d_thres)
        for g in _oracle_chains(self.LINES, d_thres):
            ctx = build_context(g, d_thres)
            x = rng.normal(size=(model.d, g.n))
            for w in model.layers:
                got = local_attention_layer(ctx, x, w)
                want = _reference_local_attention_layer(ctx, x, w)
                assert np.abs(got - want).max() <= 1e-12
                x = got

    @staticmethod
    def _repadded(ctx, rng, extra):
        """ctx with its pads pointing at random atoms in random images and
        holding random distances and path means, widened by extra pad
        columns."""
        n, width = ctx.key.shape
        shape = (n, width + extra)
        pad = np.ones(shape, dtype=bool)
        pad[:, :width] = ctx.pad
        key = rng.integers(0, n, size=shape)
        dist = rng.integers(0, DIST_CLAMP + 5, size=shape)
        path = rng.random(size=shape + (N_PATH_CODES,))
        key[~pad], dist[~pad] = ctx.key[~ctx.pad], ctx.dist[~ctx.pad]
        path[~pad] = ctx.path[~ctx.pad]
        image = rng.integers(-2, 3, size=shape)
        image[~pad] = ctx.image[~ctx.pad]
        return AttentionContext(ctx.n, key, dist, path, pad, image)

    @pytest.mark.parametrize("extra", [0, 3])
    def test_attention_ignores_pads(self, model, extra):
        rng = np.random.default_rng(extra)
        for g in _oracle_chains(self.LINES[-3:]):
            ctx = build_context(g, 3)
            assert ctx.pad.any()
            moved = self._repadded(ctx, rng, extra)
            x = rng.normal(size=(model.d, g.n))
            for w in model.layers:
                got = local_attention_layer(moved, x, w)
                want = local_attention_layer(ctx, x, w)
                # a wider row only regroups the sums over it
                assert np.abs(got - want).max() <= (1e-12 if extra else 0.0)

    def test_gin_ignores_extra_pads(self, model):
        rng = np.random.default_rng(6)
        args = (model["gin0.w1"], model["gin0.b1"],
                model["gin0.w2"], model["gin0.b2"])
        for g in _oracle_chains(self.LINES[-3:]):
            nbr, _ = neighbour_table(g)
            wide = np.hstack([nbr, np.full((g.n, 2), g.n)])
            x = rng.normal(size=(model.d, g.n))
            assert np.array_equal(gin_layer(wide, x, *args),
                                  gin_layer(nbr, x, *args))

    def test_neighbour_table(self):
        g = star_link(parse("*CC(C)(=O)*")).as_graph()
        nbr, code = neighbour_table(g)
        for i in range(g.n):
            real = nbr[i] < g.n
            assert nbr[i, real].tolist() == g.neighbors(i)
            assert np.all(nbr[i, ~real] == g.n)
            assert np.all(code[i, ~real] == 0)
            assert [g.bond_order(i, j) for j in nbr[i, real]] == [
                EDGE_CODES[c] for c in code[i, real]]
        assert nbr.shape == (g.n, max(g.degree(i) for i in range(g.n)))


class TestFusionAndSpatial:
    def test_project_spatial_shapes(self):
        m = ReferenceModel.generate(seed=2, d=8, L=1,
                                    spatial_groups={"a": 3, "b": 2})
        sd = SpatialDescriptors([("a", np.ones(3)), ("b", np.zeros(2))])
        xs = project_spatial(sd, m)
        assert xs.shape == (8, 2)

    def test_project_spatial_errors(self):
        m = ReferenceModel.generate(seed=2, d=8, L=1,
                                    spatial_groups={"a": 3})
        with pytest.raises(KeyError):
            project_spatial(SpatialDescriptors([("zz", np.ones(3))]), m)
        with pytest.raises(ValueError):
            project_spatial(SpatialDescriptors([("a", np.ones(4))]), m)

    def test_fusion_single_key_attends_fully(self, model):
        # with one spatial column every attention column is exactly 1
        xt = np.random.default_rng(4).normal(size=(model.d, 5))
        xs = np.random.default_rng(5).normal(size=(model.d, 1))
        out = cross_modal_fusion(xt, xs, model)
        direct = layer_norm(xt + (model["fusion.wv"] @ xs) @ np.ones((1, 5)),
                            model["fusion.ln_gain"], model["fusion.ln_bias"])
        assert np.allclose(out, direct)

    def test_fusion_zero_spatial(self, model):
        xt = np.random.default_rng(6).normal(size=(model.d, 4))
        xs = np.zeros((model.d, 2))
        out = cross_modal_fusion(xt, xs, model)
        ref = layer_norm(xt, model["fusion.ln_gain"], model["fusion.ln_bias"])
        assert np.allclose(out, ref)

    def test_fusion_dim_mismatch(self, model):
        with pytest.raises(ValueError):
            cross_modal_fusion(np.zeros((model.d, 3)),
                               np.zeros((model.d + 1, 2)), model)


class TestMasking:
    def test_extremes(self):
        x = np.ones((4, 6))
        out0, m0 = mask_atoms(x, 0.0, random.Random(0))
        assert m0 == [] and np.array_equal(out0, x)
        out1, m1 = mask_atoms(x, 1.0, random.Random(0))
        assert m1 == list(range(6)) and np.all(out1 == 0.0)
        assert np.array_equal(x, np.ones((4, 6)))  # input untouched

    def test_rate(self):
        x = np.ones((2, 1000))
        _, masked = mask_atoms(x, 0.3, random.Random(42))
        assert 0.25 <= len(masked) / 1000 <= 0.35

    def test_bad_probability(self):
        with pytest.raises(ValueError):
            mask_atoms(np.ones((2, 2)), 1.5, random.Random(0))

    def test_classifier_shape(self, model):
        from polyseq.nets import N_ATOM_CLASSES
        logits = classify_atoms(model, np.zeros((model.d, 7)))
        assert logits.shape == (N_ATOM_CLASSES, 7)


class TestForward:
    def test_deterministic(self, model):
        g = parse("*CC(C)OC(=O)*")
        a = forward_polymer(model, g)
        b = forward_polymer(model, g)
        assert a.yhat == b.yhat
        assert np.array_equal(a.xts, b.xts)

    def test_permutation_invariance_of_pooled(self, model):
        g = parse("*CC(C)OC(=O)*")
        perm = [3, 1, 5, 0, 2, 4]
        h = relabel(g, perm)
        a = forward_polymer(model, g)
        b = forward_polymer(model, h)
        assert abs(a.yhat - b.yhat) < 1e-9
        assert np.allclose(np.sort(a.pooled), np.sort(b.pooled), atol=1e-9) \
            or np.allclose(a.pooled, b.pooled, atol=1e-9)

    def test_keep_strategy_is_translation_sensitive(self, model):
        a = forward_polymer(model, parse("*CONO*"), strategy="keep")
        b = forward_polymer(model, parse("*NOCO*"), strategy="keep")
        assert abs(a.yhat - b.yhat) > 1e-6

    def test_backbone_toggle_changes_output(self, model):
        g = parse("*CC(C)O*")
        a = forward_polymer(model, g, use_backbone=True)
        b = forward_polymer(model, g, use_backbone=False)
        assert abs(a.yhat - b.yhat) > 1e-9

    def test_descriptors_enter_forward(self):
        m = ReferenceModel.generate(seed=5, d=16, L=1, d_thres=2,
                                    spatial_groups={"geom": 3})
        sd = SpatialDescriptors([("geom", np.array([0.1, 0.2, 0.3]))])
        g = parse("*CC(C)O*")
        with_sd = forward_polymer(m, g, descriptors=sd)
        without = forward_polymer(m, g)
        assert abs(with_sd.yhat - without.yhat) > 1e-9

    @pytest.mark.parametrize("strategy", ["link", "keep", "remove",
                                          "substitute"])
    def test_draw_order_keeps_the_bits(self, strategy):
        # a fresh model draws each weight as the first pass reads it; the
        # other has drawn them all, in table order, before any pass
        groups = {"shape": 3, "charge": 2}
        lines = corpus(200, seed=7)
        rng = random.Random(7)
        sds = [SpatialDescriptors([(name, np.array([rng.gauss(0.0, 1.0)
                                                    for _ in range(dim)]))
                                   for name, dim in groups.items()])
               for _ in lines]
        for descs in (sds, [None] * len(lines)):
            lazy = ReferenceModel.generate(0, spatial_groups=groups)
            m = ReferenceModel.generate(0, spatial_groups=groups)
            drawn = ReferenceModel(dict(m.weights), m.d_thres, m.seed)
            for s, sd in zip(lines, descs):
                g = parse(s)
                a = forward_polymer(lazy, g, sd, strategy)
                b = forward_polymer(drawn, g, sd, strategy)
                assert a.yhat == b.yhat, s
                assert a.xts.tobytes() == b.xts.tobytes(), s


# forward_polymer(ReferenceModel.generate(0), parse(s), strategy,
# use_backbone).yhat for the lines of corpus(8, seed=7) and three short
# units: per line, link, keep, remove and substitute, each with the backbone
# on, then off
PINNED_YHAT = {
    "*C(NSC(O)*)N": (
        0.9047585875178716, 0.5229985899591251,
        0.774729759197708, 0.5565938185115481,
        0.6624200697618043, 0.29046031945894524,
        0.6396560690373005, 0.43601223593621774,
    ),
    "*C(CC(ON(C)*)CC=O)C": (
        0.7500936979401708, 0.5993913084150205,
        0.732534649107649, 0.6526552108291134,
        0.7825133655979853, 0.6809889634108393,
        0.6661201903927944, 0.5637937433733274,
    ),
    "*SCC(OOS*)C": (
        0.7257152242466263, 0.3301626408973879,
        0.754532397960171, 0.504272897880524,
        0.9172055453907896, 0.5156722996675146,
        0.6294385150902947, 0.349784187536863,
    ),
    "*CC(CC(S*)C)ON": (
        0.7507036287340488, 0.4604032550618451,
        0.7149074009608662, 0.5997862272111655,
        0.8050876483668268, 0.6498440216428741,
        0.6300478680439924, 0.5120781727380718,
    ),
    "*NN(C*)NN": (
        0.4427547930479737, 0.045861884144540954,
        0.45295472764255695, 0.2145784268594556,
        0.4647614414580519, 0.06308212457679863,
        0.31776266495586303, 0.06177091739984941,
    ),
    "*NC(CCNS*)ON": (
        0.6862340516056007, 0.27004776088659443,
        0.6623738625527725, 0.45162980898012195,
        0.7653753347885921, 0.37639135365559434,
        0.580343741576401, 0.33931468414146904,
    ),
    "*N(C*)CC=O": (
        0.6786001852330544, 0.48354125532439607,
        0.6554405300739214, 0.6019635765160463,
        0.7725921195772789, 0.7381990129704183,
        0.4627290487622442, 0.3968241336951026,
    ),
    "*C(CN(NO*)NO)O": (
        0.7352265344836884, 0.35942899075905654,
        0.7128986898489096, 0.4357727020956361,
        0.7638227097876402, 0.404638767747537,
        0.6278952392418139, 0.3140841597655061,
    ),
    "*C*": (
        0.7269569580301702, 0.5160873673363353,
        0.8205641740768053, 0.8020245052688266,
        1.3747160975733588, 1.0001310844358244,
        0.42849802098969725, 0.4163199859153781,
    ),
    "*CC*": (
        0.7269569580301702, 0.5160873673363353,
        0.8631634892541593, 0.8482926451035199,
        0.8763440807816738, 0.5105349547120885,
        0.5038931899491188, 0.4891612924594074,
    ),
    "*C(*)O": (
        1.0842368385074805, 0.8584405351089528,
        0.7548093178527926, 0.738241856042263,
        0.9009683695663022, 0.71143258512627,
        0.6074697801022391, 0.5270470739223255,
    ),
}


class TestPinnedPredictions:
    """Predictions against recorded values, to 1e-12 rather than bit for
    bit: the last bits of a matrix product depend on the BLAS kernel."""

    @pytest.mark.parametrize("s", list(PINNED_YHAT))
    def test_every_strategy(self, s):
        model = ReferenceModel.generate(0)
        got = [forward_polymer(model, parse(s), strategy=strategy,
                               use_backbone=use_backbone).yhat
               for strategy in ("link", "keep", "remove", "substitute")
               for use_backbone in (True, False)]
        assert np.abs(np.array(got) - PINNED_YHAT[s]).max() <= 1e-12

    def test_descriptors(self):
        model = ReferenceModel.generate(
            0, spatial_groups={"shape": 2, "charge": 1})
        sd = SpatialDescriptors([("shape", np.array([0.5, 1.5])),
                                 ("charge", np.array([-1.0]))])
        yhat = forward_polymer(model, parse("*CC(C)O*"), sd).yhat
        assert abs(yhat - 0.46854528007595503) <= 1e-12


class TestFragCam:
    def test_single_fragment_completeness(self, model):
        g = parse("*CC(C)OC(=O)*")
        scores, yhat = fragcam(model, g, [set(range(g.n))])
        assert scores[0] == pytest.approx(yhat, abs=1e-12)

    def test_scores_sum_to_prediction(self, model):
        g = parse("*CC(C)OC(=O)*")
        frags = [{0, 1, 2}, {3}, {4, 5}]
        scores, yhat = fragcam(model, g, frags)
        assert sum(scores) == pytest.approx(yhat, abs=1e-9)

    def test_overlap_goes_to_first_fragment(self, model):
        g = parse("*CONO*")
        a = fragcam(model, g, [{0, 1}, {1, 2, 3}])
        b = fragcam(model, g, [{0, 1}, {2, 3}])
        assert a == b

    def test_normalize_fragmentation_errors(self):
        with pytest.raises(ValueError):
            normalize_fragmentation([{0, 1}], 3)
        with pytest.raises(ValueError):
            normalize_fragmentation([{0, 5}], 3)

    def test_empty_after_overlap_is_zero(self, model):
        g = parse("*CONO*")
        scores, yhat = fragcam(model, g, [{0, 1, 2, 3}, {3}])
        assert scores[1] == 0.0
        assert sum(scores) == pytest.approx(yhat, abs=1e-12)
