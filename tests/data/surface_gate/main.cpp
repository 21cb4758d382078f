// Binary side of the surface_gate self-test: keeps kept() only.
namespace rdo::surface_fixture {
int kept(int x);
}  // namespace rdo::surface_fixture

int main(int argc, char**) {
  return rdo::surface_fixture::kept(argc) == 2 ? 0 : 1;
}
