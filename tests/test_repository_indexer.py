"""Unit tests for the offline repository indexer."""

import threading

from repro.matching.profile import ProfileStore, SchemaMatchProfile
from repro.repository.indexer import RepositoryIndexer
from repro.repository.store import SchemaRepository

from tests.conftest import build_clinic_schema, build_hr_schema


class TestRefresh:
    def test_initial_refresh_indexes_everything(self):
        with SchemaRepository.in_memory() as repo:
            repo.add_schema(build_clinic_schema())
            repo.add_schema(build_hr_schema())
            indexer = RepositoryIndexer(repo)
            applied = indexer.refresh()
            assert applied == 2
            assert indexer.index.document_count == 2

    def test_refresh_is_incremental(self):
        with SchemaRepository.in_memory() as repo:
            repo.add_schema(build_clinic_schema())
            indexer = RepositoryIndexer(repo)
            indexer.refresh()
            assert indexer.refresh() == 0  # nothing new
            repo.add_schema(build_hr_schema())
            assert indexer.refresh() == 1

    def test_update_reindexes(self):
        with SchemaRepository.in_memory() as repo:
            schema = build_clinic_schema()
            schema_id = repo.add_schema(schema)
            indexer = RepositoryIndexer(repo)
            indexer.refresh()
            schema.name = "renamed_clinic"
            repo.update_schema(schema)
            indexer.refresh()
            assert indexer.index.document(schema_id).title == \
                "renamed_clinic"

    def test_delete_removes_document(self):
        with SchemaRepository.in_memory() as repo:
            schema_id = repo.add_schema(build_clinic_schema())
            indexer = RepositoryIndexer(repo)
            indexer.refresh()
            repo.delete_schema(schema_id)
            indexer.refresh()
            assert indexer.index.document_count == 0

    def test_add_then_delete_between_refreshes_collapses(self):
        with SchemaRepository.in_memory() as repo:
            indexer = RepositoryIndexer(repo)
            schema_id = repo.add_schema(build_clinic_schema())
            repo.delete_schema(schema_id)
            applied = indexer.refresh()
            assert indexer.index.document_count == 0
            assert applied == 0

    def test_multiple_updates_collapse_to_one_operation(self):
        with SchemaRepository.in_memory() as repo:
            schema = build_clinic_schema()
            repo.add_schema(schema)
            indexer = RepositoryIndexer(repo)
            indexer.refresh()
            for name in ("a", "b", "c"):
                schema.name = name
                repo.update_schema(schema)
            assert indexer.refresh() == 1
            assert indexer.index.document(schema.schema_id).title == "c"


class TestProfileSync:
    """The changelog-driven refresh keeps the profile cache honest."""

    def test_refresh_builds_profiles_eagerly(self):
        with SchemaRepository.in_memory() as repo:
            schema_id = repo.add_schema(build_clinic_schema())
            store = ProfileStore(repo)
            indexer = RepositoryIndexer(repo, profile_store=store)
            indexer.refresh()
            assert schema_id in store  # built before any query asks

    def test_refresh_builds_only_surviving_profiles(self, monkeypatch):
        """A batch of more adds/updates than the store holds builds
        exactly ``capacity`` profiles and leaves the store as putting
        every one would: same ids, same LRU order, no stale entry."""
        capacity = 3
        with SchemaRepository.in_memory() as repo:
            first = build_clinic_schema("clinic_0")
            repo.add_schema(first)
            second_id = repo.add_schema(build_hr_schema())
            store = ProfileStore(repo, capacity=capacity)
            indexer = RepositoryIndexer(repo, profile_store=store)
            indexer.refresh()
            eager = ProfileStore(repo, capacity=capacity)
            for schema_id in (first.schema_id, second_id):
                eager.put(repo.get_schema(schema_id))

            first.name = "clinic_renamed"
            repo.update_schema(first)
            batch = [first.schema_id]
            for i in range(1, 7):
                batch.append(repo.add_schema(build_clinic_schema(
                    f"clinic_{i}")))
                if i == 2:
                    repo.delete_schema(second_id)
            assert len(batch) > capacity

            built = []
            build = SchemaMatchProfile.build.__func__

            def counting_build(cls, schema):
                built.append(schema.schema_id)
                return build(cls, schema)

            monkeypatch.setattr(SchemaMatchProfile, "build",
                                classmethod(counting_build))
            indexer.refresh()
            assert built == batch[-capacity:]
            for schema_id in batch:
                eager.put(repo.get_schema(schema_id))
                if schema_id == batch[2]:
                    eager.invalidate(second_id)
            assert list(store._entries) == list(eager._entries)
            for schema_id in list(eager._entries):
                assert store.get_profile(schema_id) == \
                    eager.get_profile(schema_id)
                assert store.get_schema(schema_id).name == \
                    eager.get_schema(schema_id).name
            assert first.schema_id not in store  # no stale entry kept

    def test_update_via_changelog_refreshes_profile(self):
        with SchemaRepository.in_memory() as repo:
            schema = build_clinic_schema()
            schema_id = repo.add_schema(schema)
            store = ProfileStore(repo)
            indexer = RepositoryIndexer(repo, profile_store=store)
            indexer.refresh()
            old_paths = store.get_profile(schema_id).element_paths

            from repro.model.elements import Attribute, Entity
            schema.add_entity(Entity("lab_result", [
                Attribute("id", "INTEGER", primary_key=True),
                Attribute("value", "DECIMAL(8,2)"),
            ]))
            repo.update_schema(schema)
            indexer.refresh()
            new_paths = store.get_profile(schema_id).element_paths
            assert new_paths != old_paths
            assert "lab_result.value" in new_paths
            # The cached schema moved in step with the profile.
            assert "lab_result" in store.get_schema(schema_id).entities

    def test_delete_via_changelog_drops_profile(self):
        with SchemaRepository.in_memory() as repo:
            schema_id = repo.add_schema(build_clinic_schema())
            store = ProfileStore(repo)
            indexer = RepositoryIndexer(repo, profile_store=store)
            indexer.refresh()
            repo.delete_schema(schema_id)
            indexer.refresh()
            assert schema_id not in store

    def test_repository_crud_invalidates_lazily_cached_entries(self):
        """The repository's own mutation methods invalidate the shared
        store immediately — a stale schema is never served, even before
        the next indexer refresh."""
        with SchemaRepository.in_memory() as repo:
            schema = build_clinic_schema()
            schema_id = repo.add_schema(schema)
            store = repo.profile_store()
            store.get_profile(schema_id)  # lazily cached
            schema.name = "renamed_clinic"
            repo.update_schema(schema)
            assert schema_id not in store
            assert store.get_schema(schema_id).name == "renamed_clinic"
            repo.delete_schema(schema_id)
            assert schema_id not in store

    def test_engine_search_sees_post_update_state(self):
        with SchemaRepository.in_memory() as repo:
            schema = build_clinic_schema()
            repo.add_schema(schema)
            engine = repo.engine()
            assert engine.search(keywords="patient height")[0].name == \
                "clinic_emr"
            schema.name = "renamed_clinic"
            repo.update_schema(schema)
            engine = repo.engine()  # refreshes index + profiles
            assert engine.search(keywords="patient height")[0].name == \
                "renamed_clinic"

    def test_rebuild_repopulates_profiles(self):
        with SchemaRepository.in_memory() as repo:
            a = repo.add_schema(build_clinic_schema())
            b = repo.add_schema(build_hr_schema())
            store = ProfileStore(repo)
            indexer = RepositoryIndexer(repo, profile_store=store)
            indexer.rebuild()
            assert a in store and b in store


class TestRebuild:
    def test_rebuild_from_scratch(self):
        with SchemaRepository.in_memory() as repo:
            repo.add_schema(build_clinic_schema())
            repo.add_schema(build_hr_schema())
            indexer = RepositoryIndexer(repo)
            count = indexer.rebuild()
            assert count == 2
            assert indexer.refresh() == 0  # cursor advanced by rebuild


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        with SchemaRepository.in_memory() as repo:
            repo.add_schema(build_clinic_schema())
            indexer = RepositoryIndexer(repo)
            indexer.refresh()
            path = tmp_path / "segment.jsonl"
            indexer.save(path)

            fresh = RepositoryIndexer(repo)
            fresh.load(path)
            assert fresh.index.document_count == 1
            # Cursor advanced to head: no replay of old changes.
            assert fresh.refresh() == 0
            # New changes still picked up.
            repo.add_schema(build_hr_schema())
            assert fresh.refresh() == 1


class TestScheduledRuns:
    def test_run_scheduled_with_max_refreshes(self):
        with SchemaRepository.in_memory() as repo:
            repo.add_schema(build_clinic_schema())
            indexer = RepositoryIndexer(repo)
            total = indexer.run_scheduled(interval_seconds=0.001,
                                          max_refreshes=3)
            assert total == 1  # only the initial add existed

    def test_stop_terminates_loop(self):
        with SchemaRepository.in_memory() as repo:
            repo.add_schema(build_clinic_schema())
            indexer = RepositoryIndexer(repo)
            thread = threading.Thread(
                target=indexer.run_scheduled,
                kwargs={"interval_seconds": 0.01})
            thread.start()
            indexer.stop()
            thread.join(timeout=5)
            assert not thread.is_alive()

    def test_concurrent_searches_during_scheduled_refresh(self):
        """Background refreshes must not corrupt concurrent reads.

        The scheduled indexer mutates the live index while a searcher
        iterates postings; batches apply under the index mutation lock
        and searches serialize against whole batches, so every query
        sees a consistent generation — never a half-applied refresh.
        """
        from repro.index.searcher import IndexSearcher

        with SchemaRepository.in_memory() as repo:
            repo.add_schema(build_clinic_schema())
            indexer = RepositoryIndexer(repo)
            indexer.refresh()
            searcher = IndexSearcher(indexer.index)
            errors: list[BaseException] = []

            def run_queries() -> None:
                try:
                    for _ in range(200):
                        hits = searcher.search(
                            ["patient", "height", "gender"], top_n=10)
                        for hit in hits:
                            # Title resolution exercises the doc store
                            # against concurrent replace/remove.
                            assert hit.title
                except BaseException as exc:  # lint: fault-boundary (collected errors re-raised by the asserting thread)
                    errors.append(exc)

            refresher = threading.Thread(
                target=indexer.run_scheduled,
                kwargs={"interval_seconds": 0.0005,
                        "max_refreshes": 500})
            reader = threading.Thread(target=run_queries)
            refresher.start()
            reader.start()
            # Churn the repository while both threads run.
            for i in range(30):
                schema = build_clinic_schema(f"clinic_{i}")
                schema_id = repo.add_schema(schema)
                if i % 3 == 0:
                    repo.delete_schema(schema_id)
                elif i % 3 == 1:
                    schema.name = f"clinic_{i}_renamed"
                    repo.update_schema(schema)
            reader.join(timeout=30)
            indexer.stop()
            refresher.join(timeout=30)
            assert not reader.is_alive() and not refresher.is_alive()
            assert errors == []
            # After a final refresh the searcher sees the end state.
            indexer.refresh()
            hits = searcher.search(["patient"], top_n=100)
            assert len(hits) == indexer.index.document_count
