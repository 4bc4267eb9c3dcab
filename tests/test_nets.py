import hashlib
import math
import random

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
    parse,
    project_spatial,
    star_link,
)
from polyseq.graphs import relabel
from polyseq.nets import (
    _normals,
    classify_atoms,
    layer_weights,
    normalize_fragmentation,
    softmax_columns,
)


@pytest.fixture(scope="module")
def model():
    return ReferenceModel.generate(seed=7, d=16, L=2, d_thres=3)


def star_ctx(psmiles, d_thres):
    g = star_link(parse(psmiles)).as_graph()
    return g, build_context(g, d_thres)


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
         "43cca928f00c3fc1"),
        ((101,), dict(d=64, L=3, d_thres=3), "4fbdd21557b88acc"),
        ((7,), dict(d=16, L=2, d_thres=3), "03b3078096967452"),
        ((2 ** 64 + 5,), dict(d=16, L=1, d_thres=3), "59f18278926e9b19"),
        ((-3,), dict(d=16, L=1, d_thres=3), "d034ba5a7dd1c0a7"),
    ])
    def test_golden_digest(self, args, kwargs, digest):
        assert ReferenceModel.generate(*args, **kwargs).digest() == digest

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

    def test_save_load_round_trip(self, model, tmp_path):
        path = str(tmp_path / "model.json")
        model.save(path)
        loaded = ReferenceModel.load(path)
        assert loaded.d == model.d and loaded.L == model.L
        assert loaded.seed == model.seed
        for k in model.weights:
            assert np.array_equal(loaded[k], model[k])

    def test_missing_weight_raises(self, model):
        with pytest.raises(KeyError):
            model["attn9.wq"]

    @pytest.mark.parametrize("d, L", [(0, 1), (-4, 1), (8, 0), (8, -1)])
    def test_non_positive_size_raises(self, d, L):
        with pytest.raises(ValueError):
            ReferenceModel.generate(seed=1, d=d, L=L)

    def test_spatial_groups(self):
        m = ReferenceModel.generate(seed=1, d=8, L=1,
                                    spatial_groups={"geom": 3})
        assert m["spatial.geom"].shape == (8, 3)


class TestPrimitives:
    def test_layer_norm_stats(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(12, 5)) * 4 + 2
        out = layer_norm(x)
        assert np.allclose(out.mean(axis=0), 0.0, atol=1e-10)
        assert np.allclose(out.std(axis=0), 1.0, atol=1e-6)

    def test_layer_norm_gain_bias(self):
        x = np.arange(8.0).reshape(4, 2)
        g = np.array([2.0, 2.0, 2.0, 2.0])
        b = np.array([1.0, 1.0, 1.0, 1.0])
        assert np.allclose(layer_norm(x, g, b), 2 * layer_norm(x) + 1)

    def test_softmax_columns(self):
        s = np.array([[0.0, 10.0], [1.0, 10.0]])
        a = softmax_columns(s)
        assert np.allclose(a.sum(axis=0), 1.0)
        assert np.allclose(a[:, 1], 0.5)

    def test_gin_symmetry(self, model):
        g = star_link(parse("*CONO*")).as_graph()
        x = np.ones((model.d, g.n))
        out = gin_layer(g, x, model["gin0.w1"], model["gin0.b1"],
                        model["gin0.w2"], model["gin0.b2"])
        # every atom of the uniform 4-cycle sees an identical neighborhood
        assert np.allclose(out, out[:, :1])

    def test_gin_shape_checks(self, model):
        g = star_link(parse("*CONO*")).as_graph()
        with pytest.raises(ValueError):
            gin_layer(g, np.ones((model.d + 1, g.n)), model["gin0.w1"],
                      model["gin0.b1"], model["gin0.w2"], model["gin0.b2"])
        with pytest.raises(ValueError):
            gin_layer(g, np.ones((model.d, g.n + 1)), model["gin0.w1"],
                      model["gin0.b1"], model["gin0.w2"], model["gin0.b2"])


class TestAttention:
    def test_columns_are_distributions(self, model):
        g, ctx = star_ctx("*CC(C)OC(=O)*", 2)
        w = layer_weights(model, "attn0")
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
            outside = ~ctx.local_mask[:, i]
            moved[:, outside] = rng.normal(size=(model.d, outside.sum()))
            got = local_attention_layer(ctx, moved, w)
            assert np.allclose(got[:, i], base[:, i], atol=1e-12)
            assert not np.allclose(got[:, outside], base[:, outside])


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
