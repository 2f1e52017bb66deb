"""Golden ``RunMetrics`` digests: the scalar engine's results, pinned.

Every :func:`~repro.experiments.harness.standard_policies` entry runs in
the three sensing environments on both MCU profiles at 10 events.  Each
run is reduced to the sha256 of canonical JSON over
``dataclasses.asdict(RunMetrics)``, less the five decision-path work
counters (they describe implementation effort, not simulated behaviour;
``test_fast_paths.py`` pins them instead).  A one-ulp change
anywhere in storage, buffer, scheduling or metrics code moves a digest.

The same digests must come out when the inputs are attached from a
:class:`~repro.trace.store.TraceStore` instead of generated, and when a
trace sink observes the run.

A second matrix pins the scalar engine on a 40-event CROWDED schedule:
every policy family, cost jitter, the unbounded Ideal buffer, a dense
sub-second trace, and two traces without a positive-energy period (an
aperiodic replay of the solar arrays and one whose power drops to zero
for good, starving the device to the hard end).  Those last two are the
only pinned runs that take the general recharge loop and call
``Supercapacitor.harvest``.  Each digest was recorded from both the
engine's cached hot paths and its since-deleted stateless reference
implementation, which agreed on every run, so the digests are the
reference's own results.  ``test_fast_paths.py`` checks the first twelve;
this module checks the four general-recharge runs.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json

import numpy as np
import pytest

from repro.core.runtime import QuetzalRuntime
from repro.device.mcu import APOLLO4, MSP430FR5994
from repro.env.activity import CROWDED, LESS_CROWDED, MORE_CROWDED
from repro.experiments.configs import ExperimentConfig
from repro.experiments.harness import standard_policies
from repro.obs import RingBufferTracer
from repro.policies.always_degrade import AlwaysDegradePolicy
from repro.policies.buffer_threshold import BufferThresholdPolicy, catnap_policy
from repro.policies.noadapt import NoAdaptPolicy
from repro.policies.power_threshold import PowerThresholdPolicy
from repro.sim.engine import SimulationConfig, SimulationEngine, simulate
from repro.sim.telemetry import TelemetryRecorder
from repro.trace.power_trace import PiecewiseConstantTrace
from repro.trace.solar import SolarTraceConfig, SolarTraceGenerator
from repro.trace.store import TraceStore
from repro.workload.pipelines import build_apollo_app

N_EVENTS = 10

ENVIRONMENTS = {"less": LESS_CROWDED, "crowded": CROWDED, "more": MORE_CROWDED}
MCUS = {"apollo4": APOLLO4, "msp430": MSP430FR5994}

WORK_COUNTER_FIELDS = (
    "decision_cache_hits",
    "decision_cache_misses",
    "decision_scored_candidates",
    "degradation_walks",
    "degradation_walk_steps",
)

#: "policy/environment/mcu" -> digest, recorded before the engine's
#: observer hooks were merged into one.
GOLDEN = {
    "QZ/less/apollo4": "71e212f33ba7502f540f30259ea1ca5049e5c1d1a42aa7e2276a9038f906426c",
    "QZ/less/msp430": "f0327c66065458b8536fd1716217ba42e4a2d40906ce024dc0466c53c219d421",
    "QZ/crowded/apollo4": "aa022b2638e30ec381768856a30d3c79c90540b13a2d0977990fff2b14f76e62",
    "QZ/crowded/msp430": "6656ac1b82d8e179316218e613b895c1d28231923340f9d844dafa083ba56bba",
    "QZ/more/apollo4": "d6e35e39551a770ef15e4c446c879058409d4157cf3e95b8e9d168319a5b8c05",
    "QZ/more/msp430": "047533a59370828706d69d4504bb31367cb6d5908d1ac34dcd430059686c97e4",
    "NA/less/apollo4": "adc3e52841c614bef77670e212510f6a71c576f5926ac00f13f61cf163736321",
    "NA/less/msp430": "6118a9bcc7646fae955dd2e8ad339d0e2491b8983adca6e3d85d057ab2a2320c",
    "NA/crowded/apollo4": "98dbdaba2d8b725e51ee76c7408beceafa5b7a994c6bb2775a83cee52fe417eb",
    "NA/crowded/msp430": "46e1364efe605174368a1d5b35d0533e0d37c3061c1b6975344fd8f70b748685",
    "NA/more/apollo4": "b0822594203e8609d3b416f5d66d973d6c6e4b77ea97b8f34406ec9761a32a24",
    "NA/more/msp430": "291820f319a6704664e6008712a6cc6df1ae25142c42afb8cb8ee5e225948220",
    "AD/less/apollo4": "36ba64726a52066ffac0b4da8485b0386224fc47b1a289eecfce87a094763c14",
    "AD/less/msp430": "fd915cd0dd6d0229239673016e403bdbcf7f43136d21d146ef9dabea2f856574",
    "AD/crowded/apollo4": "ac54141616351e038c7a63a3c52b6dabcf3a1c6c13afbb91ee3f5d2fb5c431c4",
    "AD/crowded/msp430": "80e3d0c30e35a7ce9933e6b19a8fafeef34077a906e2c3e51e87d5de16ffa240",
    "AD/more/apollo4": "d38a586873e7bef52c67fa79dc265a5137d942149d51bb51e3b7803ee43d1e32",
    "AD/more/msp430": "ca82bd03dfff486d2c77533d64f5956818d59818c6124518391a1c02c77bbd1e",
    "CN/less/apollo4": "adc3e52841c614bef77670e212510f6a71c576f5926ac00f13f61cf163736321",
    "CN/less/msp430": "6118a9bcc7646fae955dd2e8ad339d0e2491b8983adca6e3d85d057ab2a2320c",
    "CN/crowded/apollo4": "cdc4d0c738d62d2d00bb62fcdf81e6255faf20fe240392c6c98a4bf4dd2a0a73",
    "CN/crowded/msp430": "46e1364efe605174368a1d5b35d0533e0d37c3061c1b6975344fd8f70b748685",
    "CN/more/apollo4": "31ec5c2ca813d746f27b2c804f6fda5719a8ea7c43bacdbff0a3fc44d07aaf81",
    "CN/more/msp430": "780525f124ff8ed7a8ab8faf0cf2ae3b9b711e79f305ce80da74082952a12bc4",
    "PZO/less/apollo4": "36ba64726a52066ffac0b4da8485b0386224fc47b1a289eecfce87a094763c14",
    "PZO/less/msp430": "fd915cd0dd6d0229239673016e403bdbcf7f43136d21d146ef9dabea2f856574",
    "PZO/crowded/apollo4": "ac54141616351e038c7a63a3c52b6dabcf3a1c6c13afbb91ee3f5d2fb5c431c4",
    "PZO/crowded/msp430": "80e3d0c30e35a7ce9933e6b19a8fafeef34077a906e2c3e51e87d5de16ffa240",
    "PZO/more/apollo4": "d38a586873e7bef52c67fa79dc265a5137d942149d51bb51e3b7803ee43d1e32",
    "PZO/more/msp430": "ca82bd03dfff486d2c77533d64f5956818d59818c6124518391a1c02c77bbd1e",
    "PZI/less/apollo4": "36ba64726a52066ffac0b4da8485b0386224fc47b1a289eecfce87a094763c14",
    "PZI/less/msp430": "fd915cd0dd6d0229239673016e403bdbcf7f43136d21d146ef9dabea2f856574",
    "PZI/crowded/apollo4": "ac54141616351e038c7a63a3c52b6dabcf3a1c6c13afbb91ee3f5d2fb5c431c4",
    "PZI/crowded/msp430": "2ac9b88868e34614d274af0286acf737146bb42766a7b5693cd40034f24a041c",
    "PZI/more/apollo4": "93d7468db7392fc3f83b241ee0e3266db78cf1276d668abbee6857d3bc692118",
    "PZI/more/msp430": "bcda692273ca6549a17bb214cc9f0fb42a9315d7bf155378b7bf7946697b5713",
    "TH25/less/apollo4": "78c3329718a0e8cfbf023c63bcbc1852c735e1d1a40b82dba69be676c6b6b131",
    "TH25/less/msp430": "e52b9b97e1c8f02a836a8afd489af5d77650565864700c1d81928d7a32b21658",
    "TH25/crowded/apollo4": "597e1b1a0f86ffb972ec486eee60eec5ad3fd7a613283589db7f05e4b95be30a",
    "TH25/crowded/msp430": "52eb00cdfb92943df87c47fb77e7ef6bee58462023f7e8930d07be5a441653a6",
    "TH25/more/apollo4": "08b0ee2aedebabf7bb7380398ef6c14a28afe25039f0d5d4b80bbec2138e9162",
    "TH25/more/msp430": "4bccb623ebed3ddd2d249584271a91210d5306a9171f17ad277fc88f2fdd6afa",
    "TH50/less/apollo4": "23c64b2db31fb392770d0bf41379fda44be5f55cc672303e0ff7bc40c3903ce5",
    "TH50/less/msp430": "6118a9bcc7646fae955dd2e8ad339d0e2491b8983adca6e3d85d057ab2a2320c",
    "TH50/crowded/apollo4": "1d051989df8fec5491fbec3920b324f8c8729834d5302bf0dcc9c08f0605a2e5",
    "TH50/crowded/msp430": "2236c3606e2ab88bd79d099c77968a33f59baf3215958f434bca6fc1f4a54446",
    "TH50/more/apollo4": "093b3f008dfb9c341b2805419089c80f51c47f88bc248f06f53169de2602ae03",
    "TH50/more/msp430": "694c020709ba17eb389f42bd05762f4d4e0adabfa59098dbb1b1a040c633b70a",
    "TH75/less/apollo4": "69a31bd751b794acffe478851091c86ce70230d28856e206e70bff7b113696c8",
    "TH75/less/msp430": "6118a9bcc7646fae955dd2e8ad339d0e2491b8983adca6e3d85d057ab2a2320c",
    "TH75/crowded/apollo4": "ffa6f032dd718d5e27e70300f4c99142c52500c5058fdb60da6497922236d1e3",
    "TH75/crowded/msp430": "7cd5272d63003f08d5cd52e2c864b5e25831cf53213d4badd3cb0ab0620bf8b6",
    "TH75/more/apollo4": "1bab65effa8b42dda92d5af20f948b77d1f8aa992102b1539968f342e78041f1",
    "TH75/more/msp430": "ecb2edc7f4441047907ccbe6ddcdf25078fca416c887866bd5647dacec34d408",
    "QZ-FCFS/less/apollo4": "210ce82c83ce848257ef0a7ae42a9caeae423f584e83412bfd287f024fbfceb8",
    "QZ-FCFS/less/msp430": "5a2487d6a6c20e440ecc9be84c3424b9ab40233c49ade1281faecef04691b6c3",
    "QZ-FCFS/crowded/apollo4": "0ee4c353c0e28621a6865c29a33fc2050886b06f5156ac9e0dba07d9e3aa0e3e",
    "QZ-FCFS/crowded/msp430": "b16f212c54a54abe2ccba94b5bf628d0be461408c6480dedb1fbf3990b9ebbb0",
    "QZ-FCFS/more/apollo4": "d1a3a45f981d67d4645ec929ce434ea7e9640a787b605c22a79099c1435593c4",
    "QZ-FCFS/more/msp430": "ab23f578144bcc1efc2710f22e6d601dfc8d1c529ab86687881945c5a120fbe4",
    "QZ-LCFS/less/apollo4": "505461ccc51eb0d07da86c1dc5d987748620dae8f1fcb05edbfda18ecd4dcd3a",
    "QZ-LCFS/less/msp430": "c907ac880ead62b6f4826c218f4c49d336cb9fe5a743297f727597cb13e0d56a",
    "QZ-LCFS/crowded/apollo4": "eb92c223415574beee8ecc3ff3b03d4e12af8bb8d48f755929fad6a8269a041d",
    "QZ-LCFS/crowded/msp430": "decc1c010848100bbe305245f4e0cf17b219cec83b2e9bc3c2d4b912edbafa4a",
    "QZ-LCFS/more/apollo4": "69cf2bf1339d449475fd8c161fd34d3ebb532d0fc8f67f788676d182e03c1399",
    "QZ-LCFS/more/msp430": "4ac3bf8f1ac03a289c432bc2cc5079fabf5a17f2d53f0a7543e55d488eda78bf",
    "QZ-AVG/less/apollo4": "b1617fa3bbf2fb51139b7e0f84354747c10840b92cce82aa8269d49a5c7e7f57",
    "QZ-AVG/less/msp430": "29f4508450a9bb498371c48c3a5f68ce6a1fc65ace36544ce5fcffdc5dec20cf",
    "QZ-AVG/crowded/apollo4": "966c5118d72fcb15d6c65357634ffb37225bec94d39fa2ff2567509fb429cf81",
    "QZ-AVG/crowded/msp430": "8004a7ab8813ca2d2f56d8260f8db7bffd7c2f84da652c1909bbee5e40e2cb23",
    "QZ-AVG/more/apollo4": "5a8cdbaeed504b86e877c3e4996cf04dc5cef4622a417d073305b996fc975f50",
    "QZ-AVG/more/msp430": "2c5570b727dfbe182cc6563aa1494a6276c590d20571f7c24002d344ae473860",
}


def config_for(env: str, mcu: str) -> ExperimentConfig:
    return ExperimentConfig(
        name=f"golden-{env}-{mcu}",
        mcu=MCUS[mcu],
        environment=ENVIRONMENTS[env],
        n_events=N_EVENTS,
    )


def digest(metrics) -> str:
    tree = dataclasses.asdict(metrics)
    for field in WORK_COUNTER_FIELDS:
        tree.pop(field)
    text = json.dumps(tree, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def run(config, policy, trace, schedule, tracer=None) -> str:
    engine = SimulationEngine(
        app=config.build_app(),
        policy=standard_policies()[policy](),
        trace=trace,
        schedule=schedule,
        mcu=config.mcu,
        storage=config.build_storage(),
        config=config.build_sim_config(),
        tracer=tracer,
    )
    return digest(engine.run())


@pytest.fixture(scope="module")
def generated():
    """Generated (trace, schedule) per environment; MCUs share them."""
    trace = config_for("crowded", "apollo4").build_trace()
    return {
        env: (trace, config_for(env, "apollo4").build_schedule())
        for env in ENVIRONMENTS
    }


def golden_keys(env=None, policies=None):
    return [
        (policy, e, mcu)
        for policy in (policies or standard_policies())
        for e in ENVIRONMENTS
        if env is None or e == env
        for mcu in MCUS
    ]


def test_matrix_is_complete():
    assert sorted(GOLDEN) == sorted("/".join(key) for key in golden_keys())
    assert len(GOLDEN) == 72


@pytest.mark.parametrize("env", sorted(ENVIRONMENTS))
def test_generated_inputs(env, generated):
    trace, schedule = generated[env]
    got = {
        f"{policy}/{e}/{mcu}": run(config_for(e, mcu), policy, trace, schedule)
        for policy, e, mcu in golden_keys(env)
    }
    assert got == {key: GOLDEN[key] for key in got}


def test_store_attached_inputs(tmp_path):
    writer = TraceStore.create(tmp_path / "store")
    for mcu in MCUS:
        writer.put_for_config(config_for("crowded", mcu))
    store = TraceStore.open(tmp_path / "store")
    got = {}
    for policy, env, mcu in golden_keys("crowded"):
        config = config_for(env, mcu)
        trace, schedule = store.trace_for(config), store.schedule_for(config)
        assert trace is not None and schedule is not None
        got[f"{policy}/{env}/{mcu}"] = run(config, policy, trace, schedule)
    assert got == {key: GOLDEN[key] for key in got}


@pytest.mark.parametrize("sink", [RingBufferTracer, TelemetryRecorder])
def test_observed_runs(sink, generated):
    got = {}
    for policy, env, mcu in golden_keys(policies=("QZ", "NA")):
        trace, schedule = generated[env]
        got[f"{policy}/{env}/{mcu}"] = run(
            config_for(env, mcu), policy, trace, schedule, tracer=sink()
        )
    assert got == {key: GOLDEN[key] for key in got}


# -- the 40-event fixture matrix ----------------------------------------------

FIXTURE_POLICIES = {
    "noadapt": NoAdaptPolicy,
    "quetzal": QuetzalRuntime,
    "catnap": catnap_policy,
    "buffer-threshold": lambda: BufferThresholdPolicy(0.5),
    "power-threshold": lambda: PowerThresholdPolicy(0.05),
    "always-degrade": AlwaysDegradePolicy,
}

#: "policy[/variant]" -> digest of a seed-5 run on the seed-2 CROWDED
#: 40-event schedule, recorded with fast and reference paths agreeing.
FIXTURE_GOLDEN = {
    "always-degrade": "141d41ced80ee0f98d562a7d473aac545c71ed06d164815ef7010def26094716",
    "buffer-threshold": "46d26025653c7176b3646a56b55f13a2811522114e9466c3acfdc223b8d720f6",
    "catnap": "94cd5fcc55cf703bbfa217baeb3b195f6ed8fb8c6a6bed64220fbdf0f81a2660",
    "noadapt": "71f51bb724c8a0ac4ea2575329a7e8001adfceae45475e70dc27a75efb644c0f",
    "power-threshold": "0090d101575ccd17e90cd0be2562855da2146ab889a096ddb418f16f13268665",
    "quetzal": "c5b0fd3b06ccc43f44671928ec77e6567639711070847d73ecc84848b290da33",
    "noadapt/jitter-0.2": "cd2c1b3323e172aa97ac01cc54e2e5bcc4002feaf27591a2f8e0b59756d62fcb",
    "noadapt/jitter-0.7": "b5d2ed0363020111f15f24e872746fff4ece919ee9ddd273c06c2f6ac671e432",
    "quetzal/jitter-0.2": "33947878ec166934af6318d1beb8047a9ded84a884198e0f14aa2e8591a721d4",
    "quetzal/jitter-0.7": "abcea596ea6a44f437ec468e3311623aa60b1241ff83129ec060737e61d2f459",
    "quetzal/unbounded": "7b867aecb32abcf05b41cf655784612f5509aacb801601e4ec2f60226e30a2cc",
    "noadapt/dense": "8e8ae82d73e50d1bbdf8dad993ef7742dcf406844768409c86b10aaac99bf36b",
    "noadapt/aperiodic": "eee816ba3dce8995ca8c6d997c34268ef1302d737312515598ec4e6b018f58bc",
    "quetzal/aperiodic": "a27d4197218163e2f2a57324edf201e920ab1bc5349ebfa70ecc898eaa48df0a",
    "noadapt/starved": "d857954c8b4f999c607826e737b21c17412fabc64bd2e667866dcd6b388d3901",
    "quetzal/starved": "40591daf41fea4978a2f3848cd9f0fefd9da62d71ee4362e0d8d37c589ee87d2",
}

#: Seconds of solar power the starved trace keeps before dropping to zero.
STARVE_AFTER_S = 1200

#: Runs that take the general recharge loop (no positive-energy period).
GENERAL_RECHARGE_KEYS = (
    "noadapt/aperiodic",
    "quetzal/aperiodic",
    "noadapt/starved",
    "quetzal/starved",
)


@functools.lru_cache(maxsize=None)
def fixture_trace(name: str) -> PiecewiseConstantTrace:
    if name == "dense":
        config = SolarTraceConfig(sample_period_s=0.05)
        return SolarTraceGenerator(config, seed=1).generate()
    solar = SolarTraceGenerator(seed=1).generate()
    times, powers = solar._times, solar._powers
    if name == "aperiodic":
        # No period: past the last sample its power holds forever.
        return PiecewiseConstantTrace(times, powers, period=None)
    if name == "starved":
        return PiecewiseConstantTrace(
            np.append(times[:STARVE_AFTER_S], float(STARVE_AFTER_S)),
            np.append(powers[:STARVE_AFTER_S], 0.0),
            period=None,
        )
    return solar


def fixture_cases():
    """"policy[/variant]" -> (policy, trace name, SimulationConfig kwargs)."""
    cases = {name: (name, "solar", {}) for name in FIXTURE_POLICIES}
    for name in ("noadapt", "quetzal"):
        for sigma in (0.2, 0.7):
            cases[f"{name}/jitter-{sigma}"] = (
                name, "solar", {"cost_jitter_sigma": sigma}
            )
        for trace in ("aperiodic", "starved"):
            cases[f"{name}/{trace}"] = (name, trace, {})
    cases["quetzal/unbounded"] = ("quetzal", "solar", {"buffer_capacity": None})
    cases["noadapt/dense"] = ("noadapt", "dense", {})
    return cases


def run_fixture(key: str):
    """The fixture-matrix run ``key``; returns its RunMetrics."""
    policy, trace, config_kwargs = fixture_cases()[key]
    return simulate(
        build_apollo_app(),
        FIXTURE_POLICIES[policy](),
        fixture_trace(trace),
        CROWDED.schedule(40, seed=2),
        config=SimulationConfig(seed=5, **config_kwargs),
    )


def test_fixture_matrix_is_complete():
    assert sorted(FIXTURE_GOLDEN) == sorted(fixture_cases())


@pytest.mark.parametrize("key", GENERAL_RECHARGE_KEYS)
def test_general_recharge_runs(key):
    """Traces without a positive-energy period: the general recharge loop
    and ``Supercapacitor.harvest`` are pinned; a starved device idles to
    the hard end."""
    metrics = run_fixture(key)
    if key.endswith("/starved"):
        hard_end = CROWDED.schedule(40, seed=2).end_time + 3600.0
        assert metrics.sim_end_s == hard_end
    assert digest(metrics) == FIXTURE_GOLDEN[key]
