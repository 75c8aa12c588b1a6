"""Fixture: RPR004 catches runtime session→service imports, any scope."""
# repro: module repro.session.lint_fixture_rpr004_service
from repro.service.fingerprint import request_fingerprint  # expect: RPR004


def build_service():
    from repro.service import PlanService  # expect: RPR004

    return PlanService()


def describe(request) -> str:
    return str(request_fingerprint(request))
