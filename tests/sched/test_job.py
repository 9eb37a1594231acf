"""JobSpec content hashing and JobResult bookkeeping."""

from dataclasses import replace
from unittest import mock

import pytest

import repro.sched.job as job_mod
from repro.sched import JobResult, JobSpec


class TestScienceKey:
    def test_ignores_execution_fields(self):
        a = JobSpec(dataset="la", hours=2, machine="t3e", nprocs=16)
        b = JobSpec(dataset="la", hours=2, machine="paragon", nprocs=128,
                    variant="task", io_nodes=4)
        assert a.science_key == b.science_key
        assert a.key != b.key

    def test_depends_on_scenario(self):
        a = JobSpec(dataset="la", hours=2)
        assert a.science_key != JobSpec(dataset="ne", hours=2).science_key
        assert a.science_key != JobSpec(dataset="la", hours=3).science_key
        assert a.science_key != JobSpec(dataset="la", hours=2,
                                        perturb_seed=7,
                                        perturb_sigma=0.3).science_key


class TestKey:
    def test_stable_and_tag_free(self):
        a = JobSpec(dataset="la", hours=2, tag="run A")
        b = JobSpec(dataset="la", hours=2, tag="a totally different tag")
        assert a.key == b.key
        assert len(a.key) == 64

    def test_sequential_neutralizes_machine(self):
        a = JobSpec(variant="sequential", machine="t3e", nprocs=16)
        b = JobSpec(variant="sequential", machine="paragon", nprocs=128)
        assert a.key == b.key

    def test_parallel_variants_distinct(self):
        a = JobSpec(variant="data", machine="t3e", nprocs=16)
        b = JobSpec(variant="task", machine="t3e", nprocs=16)
        assert a.key != b.key

    def test_roundtrip(self):
        spec = JobSpec(dataset="ne", hours=4, perturb_seed=3,
                       perturb_sigma=0.2, tag="x")
        assert JobSpec.from_dict(spec.to_dict()) == spec


class TestKeysAreDerivedOncePerInstance:
    def test_repeated_reads_hash_once(self):
        spec = JobSpec(dataset="la", hours=2, perturb_seed=1,
                       perturb_sigma=0.1)
        with mock.patch.object(job_mod, "_digest",
                               wraps=job_mod._digest) as digest:
            first = (spec.key, spec.science_key, spec.ensemble_key)
            for _ in range(5):
                assert (spec.key, spec.science_key,
                        spec.ensemble_key) == first
        assert digest.call_count == 3

    def test_replace_yields_an_instance_that_rederives(self):
        spec = JobSpec(dataset="la", hours=2, nprocs=16)
        key = spec.key  # derived, and held by ``spec`` from here on
        assert replace(spec, nprocs=32).key != key
        assert replace(spec, nprocs=32).science_key == spec.science_key
        assert replace(spec, hours=3).science_key != spec.science_key
        assert replace(spec, tag="another label").key == key
        assert replace(spec, cores_per_job=4).key == key

    def test_derived_keys_are_not_part_of_the_value(self):
        a, b = JobSpec(dataset="la"), JobSpec(dataset="la")
        a.key, a.science_key  # noqa: B018 - derive on one side only
        assert a == b and hash(a) == hash(b)
        assert a.to_dict() == b.to_dict()
        assert "key" not in a.to_dict()


class TestValidation:
    def test_bad_hours(self):
        with pytest.raises(ValueError):
            JobSpec(hours=0)

    def test_bad_variant(self):
        with pytest.raises(ValueError):
            JobSpec(variant="mpi")

    def test_bad_sigma(self):
        with pytest.raises(ValueError):
            JobSpec(perturb_sigma=-0.1)

    def test_bad_nprocs(self):
        with pytest.raises(ValueError):
            JobSpec(variant="data", nprocs=0)


    @pytest.mark.parametrize("bad", [
        dict(nprocs=2), dict(nprocs=16, io_nodes=0),
        dict(nprocs=8, io_nodes=4),
    ])
    def test_impossible_task_mapping(self, bad):
        """Refused at construction: no science runs, nothing retries."""
        with pytest.raises(ValueError, match="nodes|io_nodes"):
            JobSpec(variant="task", **bad)
        JobSpec(variant="data", **bad)  # only the pipeline needs the split

    @pytest.mark.parametrize("bad", [
        dict(nprocs="64"), dict(io_nodes=1.0), dict(machine=5),
        dict(hours=None), dict(dataset=["la"]), dict(perturb_seed="7"),
    ])
    def test_wrong_types(self, bad):
        with pytest.raises(TypeError):
            JobSpec(**bad)


class TestLabel:
    def test_tag_wins(self):
        assert JobSpec(tag="my job").label == "my job"

    def test_default_label_mentions_configuration(self):
        label = JobSpec(dataset="la", hours=2, machine="t3e",
                        nprocs=16).label
        assert "la" in label and "t3e/16" in label

    def test_sequential_label_omits_machine(self):
        assert "t3e" not in JobSpec(variant="sequential").label


class TestJobResult:
    def test_ok_statuses(self):
        spec = JobSpec()
        assert JobResult(spec=spec, status="ok").ok
        assert JobResult(spec=spec, status="cached").ok
        assert not JobResult(spec=spec, status="failed").ok
        assert not JobResult(spec=spec, status="timeout").ok

    def test_summary_row_truncates_key(self):
        row = JobResult(spec=JobSpec(), status="ok").summary_row()
        assert len(row["key"]) == 12
        assert row["status"] == "ok"

    def test_sha_none_without_result(self):
        assert JobResult(spec=JobSpec(), status="failed")\
            .final_conc_sha256() is None


class TestEnsembleKey:
    def test_none_without_perturbation(self):
        assert JobSpec(dataset="la", hours=2).ensemble_key is None

    def test_shared_across_member_seeds(self):
        a = JobSpec(dataset="la", hours=2, perturb_seed=0,
                    perturb_sigma=0.3)
        b = JobSpec(dataset="la", hours=2, perturb_seed=7919,
                    perturb_sigma=0.3)
        assert a.ensemble_key == b.ensemble_key
        assert a.science_key != b.science_key

    def test_distinct_for_distinct_ensembles(self):
        base = JobSpec(dataset="la", hours=2, perturb_seed=0,
                       perturb_sigma=0.3)
        for other in (
            JobSpec(dataset="ne", hours=2, perturb_seed=0,
                    perturb_sigma=0.3),
            JobSpec(dataset="la", hours=3, perturb_seed=0,
                    perturb_sigma=0.3),
            JobSpec(dataset="la", hours=2, perturb_seed=0,
                    perturb_sigma=0.5),
        ):
            assert base.ensemble_key != other.ensemble_key
